package nodecore

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wire"
)

// echoEngine serves KPageReq with an ack and KDirRead with an echo of
// Arg, for RPC plumbing tests. Fault behaviour is configurable.
type echoEngine struct {
	rt        *Runtime
	faultFn   func(pg mem.PageID, write bool) error
	faultBusy time.Duration
}

func (e *echoEngine) Name() string { return "echo" }

func (e *echoEngine) Register(rt *Runtime) {
	e.rt = rt
	rt.Handle(wire.KPageReq, func(m *wire.Msg) {
		_ = rt.Reply(m, &wire.Msg{Kind: wire.KPageReply, Page: m.Page, Arg: m.Arg + 1})
	})
}

func (e *echoEngine) Init() {}

func (e *echoEngine) ReadFault(pg mem.PageID) error {
	if e.faultBusy > 0 {
		time.Sleep(e.faultBusy)
	}
	if e.faultFn != nil {
		return e.faultFn(pg, false)
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	p.SetProt(mem.ReadOnly)
	p.Unlock()
	return nil
}

func (e *echoEngine) WriteFault(pg mem.PageID) error {
	if e.faultFn != nil {
		return e.faultFn(pg, true)
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	p.SetProt(mem.ReadWrite)
	p.Unlock()
	return nil
}

func pair(t *testing.T) (*Runtime, *Runtime, *echoEngine, *echoEngine) {
	t.Helper()
	_, a, b, ea, eb := pairNet(t)
	return a, b, ea, eb
}

// pairNet is pair for tests that close the network themselves.
func pairNet(t *testing.T) (*simnet.Net, *Runtime, *Runtime, *echoEngine, *echoEngine) {
	t.Helper()
	net, rts, engs := echoNet(t, 2)
	return net, rts[0], rts[1], engs[0], engs[1]
}

// echoNet starts n echo-engine runtimes on one simulated network.
func echoNet(t *testing.T, n int) (*simnet.Net, []*Runtime, []*echoEngine) {
	t.Helper()
	return echoNetCfg(t, simnet.Config{Nodes: n})
}

// echoNetCfg is echoNet on a network configured by cfg.
func echoNetCfg(t *testing.T, cfg simnet.Config) (*simnet.Net, []*Runtime, []*echoEngine) {
	t.Helper()
	net, err := simnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Endpoint, cfg.Nodes)
	for i := range eps {
		eps[i] = net.Endpoint(simnet.NodeID(i))
	}
	rts, engs := startEcho(t, eps, net.Close)
	return net, rts, engs
}

// startEcho starts an echo-engine runtime on each endpoint; cleanup
// closes the transport with closeNet, then the runtimes.
func startEcho(t *testing.T, eps []transport.Endpoint, closeNet func()) ([]*Runtime, []*echoEngine) {
	t.Helper()
	rts := make([]*Runtime, len(eps))
	engs := make([]*echoEngine, len(eps))
	for i, ep := range eps {
		tbl, err := mem.NewTable(1<<14, 256)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = New(ep.ID(), len(eps), ep, tbl, &stats.Node{})
		engs[i] = &echoEngine{}
		rts[i].SetEngine(engs[i])
		// A wedged call should fail the test in seconds, by name.
		rts[i].SetCallTimeout(5 * time.Second)
		rts[i].Start()
	}
	t.Cleanup(func() {
		closeNet()
		for _, rt := range rts {
			rt.Close()
		}
	})
	return rts, engs
}

// tcpPair starts two echo-engine runtimes over TCP loopback.
func tcpPair(t *testing.T) (*Runtime, *Runtime) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*tcp.Transport, 2)
	eps := make([]transport.Endpoint, 2)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{Self: transport.NodeID(i), Addrs: addrs, Listener: lns[i], DialWindow: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		trs[i], eps[i] = tr, tr.Endpoint(transport.NodeID(i))
	}
	rts, _ := startEcho(t, eps, func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return rts[0], rts[1]
}

func TestCallReply(t *testing.T) {
	a, _, _, _ := pair(t)
	reply, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1, Page: 3, Arg: 41})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KPageReply || reply.Arg != 42 || reply.Page != 3 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestCallTimeout(t *testing.T) {
	a, b, _, _ := pair(t)
	// b has no handler for KDiffReq... install one that never replies.
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {})
	_, err := a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("no timeout")
	}
}

// TestCallFailsWhenEndpointGoesDown: once the endpoint has called down
// no reply can arrive, so a call in flight (and a token wait) fails
// then, by name, instead of at its 30 s deadline — how a node whose
// transport lost a peer stops.
func TestCallFailsWhenEndpointGoesDown(t *testing.T) {
	net, a, b, _, _ := pairNet(t)
	arrived, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {
		close(arrived)
		<-release
	})
	callErr, tokErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 30*time.Second)
		callErr <- err
	}()
	tok, ch := a.NewToken()
	go func() { tokErr <- a.AwaitToken(tok, ch, 30*time.Second) }()
	<-arrived
	start := time.Now()
	net.Close()
	for name, errc := range map[string]chan error{"call": callErr, "token wait": tokErr} {
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "node 0: shutdown while") {
				t.Fatalf("%s: err = %v, want the named shutdown error", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s still waiting 1s after the endpoint went down", name)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("waits returned %v after the endpoint went down, want within 100ms", d)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	a, b, _, _ := pair(t)
	tok, ch := a.NewToken()
	done := make(chan error, 1)
	go func() { done <- a.AwaitToken(tok, ch, time.Second) }()
	if err := b.ReleaseToken(0, tok); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTokenTimeout(t *testing.T) {
	a, _, _, _ := pair(t)
	tok, ch := a.NewToken()
	if err := a.AwaitToken(tok, ch, 30*time.Millisecond); err == nil {
		t.Fatal("token wait did not time out")
	}
}

func TestStrayReplyCounted(t *testing.T) {
	a, b, _, _ := pair(t)
	// Send an unsolicited reply; it must be dropped, not crash.
	if err := b.Send(&wire.Msg{Kind: wire.KAck, To: 0, Req: 0xDEAD}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for a.st.StrayReplies.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stray reply not recorded")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadWriteFaultLoop(t *testing.T) {
	a, _, _, _ := pair(t)
	buf := []byte{1, 2, 3, 4}
	if err := a.WriteAt(100, buf); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().WriteFaults.Load(); got != 1 {
		t.Fatalf("write faults = %d", got)
	}
	out := make([]byte, 4)
	if err := a.ReadAt(100, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[3] != 4 {
		t.Fatalf("read back %v", out)
	}
	// Page now ReadWrite: no further faults.
	if err := a.WriteAt(101, buf); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().WriteFaults.Load(); got != 1 {
		t.Fatalf("unexpected extra faults: %d", got)
	}
}

func TestFaultErrorPropagates(t *testing.T) {
	a, _, ea, _ := pair(t)
	boom := errors.New("boom")
	ea.faultFn = func(mem.PageID, bool) error { return boom }
	if err := a.ReadAt(0, make([]byte, 1)); err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The latch must have been released: a subsequent access with a
	// fixed engine succeeds.
	ea.faultFn = nil
	if err := a.ReadAt(0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFaultsSingleFlight: many goroutines hitting one
// invalid page must produce exactly one fault (the latch collapses
// them).
func TestConcurrentFaultsSingleFlight(t *testing.T) {
	a, _, ea, _ := pair(t)
	ea.faultBusy = 20 * time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			if err := a.ReadAt(200, buf); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := a.Stats().ReadFaults.Load(); got != 1 {
		t.Fatalf("faults = %d, want 1 (single flight)", got)
	}
}

func TestForwardPreservesOrigin(t *testing.T) {
	a, b, _, _ := pair(t)
	got := make(chan *wire.Msg, 1)
	// Node 1 forwards KInval to node 0; node 0 records the origin.
	a.Handle(wire.KInval, func(m *wire.Msg) { got <- m })
	orig := &wire.Msg{Kind: wire.KInval, From: 1, To: 1, Req: 7, Page: 5}
	if err := b.Forward(orig, 0); err != nil {
		t.Fatal(err)
	}
	m := <-got
	if m.From != 1 || m.Req != 7 || m.Page != 5 {
		t.Fatalf("forwarded = %+v", m)
	}
	if b.Stats().Forwards.Load() != 1 {
		t.Fatal("forward not counted")
	}
}

func TestHandleValidation(t *testing.T) {
	a, _, _, _ := pair(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("installing handler for reply kind did not panic")
			}
		}()
		a.Handle(wire.KAck, func(*wire.Msg) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double handler registration did not panic")
			}
		}()
		a.Handle(wire.KPageReq, func(*wire.Msg) {}) // already installed by engine
	}()
}

func TestUniqueReqIDs(t *testing.T) {
	a, b, _, _ := pair(t)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := a.NewReq()
		if seen[id] {
			t.Fatalf("duplicate req id %x", id)
		}
		seen[id] = true
	}
	// IDs from different nodes must not collide either.
	if seen[b.NewReq()] {
		t.Fatal("cross-node req id collision")
	}
}

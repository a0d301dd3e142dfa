package sc

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/own"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The page instance's ordering rules, driven message by message. Each
// test mirrors a lock test of the same rule (dsync's token_test.go).

const testPage = 256

// fixture is an n-node cluster of sc engines on a zero-latency
// simulator, except that one node may be a bare endpoint the test
// speaks for: it acks every invalidation itself and hands every other
// message to in.
type fixture struct {
	net  *simnet.Net
	rts  []*nodecore.Runtime
	es   []*Engine
	bare transport.Endpoint
	in   chan *wire.Msg
}

func newFixture(t *testing.T, n int, cfg Config, bare int) *fixture {
	t.Helper()
	net, err := simnet.New(simnet.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{net: net, rts: make([]*nodecore.Runtime, n), es: make([]*Engine, n), in: make(chan *wire.Msg, 16)}
	for i := 0; i < n; i++ {
		ep := net.Endpoint(simnet.NodeID(i))
		if i == bare {
			f.bare = ep
			continue
		}
		tbl, err := mem.NewTable(16*testPage, testPage)
		if err != nil {
			t.Fatal(err)
		}
		f.rts[i] = nodecore.New(simnet.NodeID(i), n, ep, tbl, &stats.Node{})
		f.rts[i].SetCallTimeout(5 * time.Second)
		f.es[i] = New(f.rts[i], cfg)
		f.rts[i].SetEngine(f.es[i])
	}
	if f.bare != nil {
		err := f.bare.Attach(func(m *wire.Msg) {
			if m.Kind == wire.KInval {
				_ = f.bare.Send(&wire.Msg{Kind: wire.KAck, From: m.To, To: m.From, Req: m.Req})
				return
			}
			f.in <- m
		}, func() {})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range f.rts {
		if rt != nil {
			rt.Start()
			rt.Engine().Init()
		}
	}
	t.Cleanup(func() {
		net.Close()
		for _, rt := range f.rts {
			if rt != nil {
				rt.Close()
			}
		}
	})
	return f
}

// send transmits m from the bare endpoint.
func (f *fixture) send(t *testing.T, m *wire.Msg) {
	t.Helper()
	m.From = f.bare.ID()
	if err := f.bare.Send(m); err != nil {
		t.Fatal(err)
	}
}

// recv waits for the next message to the bare endpoint.
func (f *fixture) recv(t *testing.T) *wire.Msg {
	t.Helper()
	select {
	case m := <-f.in:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no message reached the bare endpoint")
		return nil
	}
}

func (f *fixture) write(t *testing.T, node int, pg mem.PageID, v uint64) {
	t.Helper()
	if err := f.rts[node].WriteUint64(int64(pg)*testPage, v); err != nil {
		t.Fatal(err)
	}
}

func prot(rt *nodecore.Runtime, pg mem.PageID) mem.Prot {
	p := rt.Table().Page(pg)
	p.Lock()
	defer p.Unlock()
	return p.Prot()
}

// TestPageInvalBeforeInstall: an invalidation that reaches a reader
// while its read grant sits in the reply slot, not yet installed, is
// acked only after the hold the grant starts, and the copy does not
// stay readable. The bare
// owner sends the grant and then the invalidation; the test holds the
// frame's mutex so the install cannot run in between.
func TestPageInvalBeforeInstall(t *testing.T) {
	f := newFixture(t, 2, Config{Locator: Fixed}, 1)
	const pg = 1 // managed and owned by the bare node
	read := make(chan uint64, 1)
	go func() {
		v, err := f.rts[0].ReadUint64(pg * testPage)
		if err != nil {
			t.Error(err)
		}
		read <- v
	}()
	req := f.recv(t)
	if req.Kind != wire.KReadReq || req.Page != pg || own.Mode(req.Arg) != own.Shared {
		t.Fatalf("node 0 sent %v for page %d, arg %d; want a shared read request for page %d", req.Kind, req.Page, req.Arg, pg)
	}
	p := f.rts[0].Table().Page(pg)
	p.Lock()
	frame := make([]byte, testPage)
	binary.LittleEndian.PutUint64(frame, 42)
	f.send(t, &wire.Msg{Kind: wire.KReadGrant, To: 0, Req: req.Req, Page: pg, Data: frame})
	handled := make(chan struct{})
	go func() {
		f.send(t, &wire.Msg{Kind: wire.KInval, To: 0, Req: 1 << 20, Page: pg, Arg: 1})
		close(handled)
	}()
	select {
	case <-handled:
	case <-time.After(time.Second):
		t.Error("the invalidation's handler waited on the frame: it dropped a copy whose grant was not installed")
	}
	p.Unlock()
	<-handled
	// The copy is gone when the ack leaves. The read may lose the copy
	// to that drop before it reads and ask again, before the ack
	// arrives or after: hold such a request until the check.
	var again *wire.Msg
	for {
		m := f.recv(t)
		if m.Kind == wire.KAck && m.Req == 1<<20 {
			break
		}
		if m.Kind != wire.KReadReq || again != nil {
			t.Fatalf("bare node got %v (req %x), want the invalidation's ack", m.Kind, m.Req)
		}
		again = m
	}
	if got := prot(f.rts[0], pg); got != mem.Invalid {
		t.Fatalf("node 0's copy is %v after its invalidation was acked", got)
	}
	for {
		if again != nil {
			f.send(t, &wire.Msg{Kind: wire.KReadGrant, To: 0, Req: again.Req, Page: pg, Data: frame})
		}
		select {
		case v := <-read:
			if v != 42 {
				t.Fatalf("the faulting read saw %d, want the granted 42", v)
			}
			return
		case again = <-f.in:
			if again.Kind != wire.KReadReq {
				t.Fatalf("bare node got %v, want node 0's read request", again.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the faulting read did not return")
		}
	}
}

// TestPageRelayOutOfOrderForward: a manager's forward that reaches a
// node after it handed the page on is relayed along succ to the owner.
// Here the manager's forward of node 0's read request is replayed at
// node 1 after node 1 handed the page to node 2.
func TestPageRelayOutOfOrderForward(t *testing.T) {
	f := newFixture(t, 3, Config{Locator: Fixed}, -1)
	const pg = 3 // managed by node 0, where it starts
	f.write(t, 1, pg, 1)
	f.write(t, 2, pg, 2)
	reply, err := f.rts[0].CallT(&wire.Msg{Kind: wire.KReadReq, To: 1, Page: pg, Arg: uint64(own.Shared), B: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KReadGrant || reply.From != 2 || binary.LittleEndian.Uint64(reply.Data) != 2 {
		t.Fatalf("late forward answered by %v from node %d, want node 2's read grant of its write", reply.Kind, reply.From)
	}
	if got := f.rts[1].Stats().Forwards.Load(); got != 1 {
		t.Fatalf("node 1 relayed %d times, want 1", got)
	}
	if cs := f.es[2].pages[pg].View().Copyset; len(cs) != 1 || cs[0] != 0 {
		t.Fatalf("owner's copyset = %v, want [0]", cs)
	}
	// The copy is invalidated like any other when the page moves on.
	f.write(t, 1, pg, 3)
	if got := f.owners(t, pg); len(got) != 1 || got[0] != 1 {
		t.Fatalf("owners %v, want node 1 alone", got)
	}
}

// owners waits for pg to be quiet on every node, its last hold ended
// (a fault's hold may end on a goroutine of its own), and lists the
// nodes that own its token.
func (f *fixture) owners(t *testing.T, pg mem.PageID) []int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out []int
		quiet := true
		for i, e := range f.es {
			v := e.pages[pg].View()
			quiet = quiet && v.Held == 0 && v.Queued == 0 && !v.Asking && !v.Busy && v.Invals == 0
			if v.Tok == own.Owned {
				out = append(out, i)
			}
		}
		if quiet {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("page %d not quiet after 5s", pg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPageUpgradeNoDataOnlyWhenListed: a write request is granted
// without the frame exactly when the owner's copyset lists the
// requester. The bare node reads page 0 and upgrades: no data. It reads
// again, node 2's write invalidates its copy, and it upgrades from what
// it believes is still a copy: the new owner does not list it, so the
// frame comes along.
func TestPageUpgradeNoDataOnlyWhenListed(t *testing.T) {
	f := newFixture(t, 3, Config{Locator: Fixed}, 1)
	const pg = 0 // managed by node 0, where it starts
	call := func(kind wire.Kind, mode own.Mode, req uint64) *wire.Msg {
		f.send(t, &wire.Msg{Kind: kind, To: 0, Page: pg, Arg: uint64(mode), Req: req})
		return f.recv(t)
	}
	f.write(t, 0, pg, 5)
	if g := call(wire.KReadReq, own.Shared, 1); g.Kind != wire.KReadGrant || len(g.Data) != testPage {
		t.Fatalf("read: %v with %d bytes", g.Kind, len(g.Data))
	}
	if g := call(wire.KWriteReq, own.Exclusive, 2); g.Kind != wire.KWriteGrant || g.Arg&wire.FlagNoData == 0 || g.Data != nil {
		t.Fatalf("listed upgrade: %v, arg %x, %d bytes; want a write grant without data", g.Kind, g.Arg, len(g.Data))
	}

	// Hand the page back through node 0, then repeat the read, and let
	// node 2 write first.
	wrote := make(chan error, 1)
	go func() { wrote <- f.rts[0].WriteUint64(pg*testPage, 6) }()
	fwd := f.recv(t)
	f.send(t, &wire.Msg{Kind: wire.KWriteGrant, To: fwd.From, Req: fwd.Req, Page: pg, Data: make([]byte, testPage)})
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if g := call(wire.KReadReq, own.Shared, 3); g.Kind != wire.KReadGrant {
		t.Fatalf("second read: %v", g.Kind)
	}
	f.write(t, 2, pg, 7)
	g := call(wire.KWriteReq, own.Exclusive, 4)
	if g.Kind != wire.KWriteGrant || g.From != 2 || g.Arg&wire.FlagNoData != 0 || len(g.Data) != testPage || binary.LittleEndian.Uint64(g.Data) != 7 {
		t.Fatalf("unlisted upgrade: %v from node %d, arg %x, %d bytes; want node 2's write grant with its frame", g.Kind, g.From, g.Arg, len(g.Data))
	}
}

// TestPageIdleHoldEndsInFault: a fault that nothing waits on ends its
// hold before it returns, so no goroutine is left holding the page and
// a request that follows is served at once.
func TestPageIdleHoldEndsInFault(t *testing.T) {
	f := newFixture(t, 2, Config{Locator: Fixed}, -1)
	const pg = 1 // managed by node 1, where it starts
	f.write(t, 0, pg, 1)
	if v := f.es[0].pages[pg].View(); v.Held != 0 || v.Tok != own.Owned {
		t.Fatalf("after node 0's write fault: held %d, token %v; want 0 holds and the token", v.Held, v.Tok)
	}
	if _, err := f.rts[1].ReadUint64(pg * testPage); err != nil {
		t.Fatal(err)
	}
	if v := f.es[1].pages[pg].View(); v.Held != 0 {
		t.Fatalf("after node 1's read fault: held %d, want 0", v.Held)
	}
	if v := f.es[0].pages[pg].View(); v.Held != 0 || len(v.Copyset) != 1 || v.Copyset[0] != 1 {
		t.Fatalf("owner after node 1's read: held %d, copyset %v; want 0 holds and [1]", v.Held, v.Copyset)
	}
}

// Package transporttest is the shared conformance suite every
// transport backend must pass: per-pair FIFO ordering, concurrent
// senders, payload copy semantics, the refusal of self-sends, close
// semantics, and counter accuracy — order, copy and close both through
// Recv and through Attach. internal/simnet and
// internal/transport/tcp both run it and FramesBeforeAttach; a future
// backend plugs into the same contract by adding one test file that
// calls them with its factory.
package transporttest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Factory builds an n-node transport and returns one endpoint per
// node. Cleanup (closing the transport(s)) is registered on t; tests
// that need to close early use the returned close function, which
// must be idempotent. Backends hosting one node per Transport handle
// (tcp) return endpoints drawn from n handles.
type Factory func(t *testing.T, n int) (eps []transport.Endpoint, closeAll func())

const recvTimeout = 10 * time.Second

// via is a route to an endpoint's messages: one of ways.
type via = func(transport.Endpoint) <-chan *wire.Msg

// ways are Recv, and Pull over Attach, which panics on a delivery after
// down or a second down (a send on, or close of, a closed channel).
var ways = map[string]via{
	"Recv":   transport.Endpoint.Recv,
	"Attach": func(ep transport.Endpoint) <-chan *wire.Msg { return transport.Pull(ep.Attach, nil) },
}

// eachWay runs check once per route, as a subtest named after it.
func eachWay(t *testing.T, f Factory, check func(*testing.T, Factory, via)) {
	for name, v := range ways {
		t.Run(name, func(t *testing.T) { check(t, f, v) })
	}
}

// recvOne receives one message from ch or fails the test.
func recvOne(t *testing.T, ch <-chan *wire.Msg) *wire.Msg {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatalf("recv channel closed while a message was expected")
		}
		return m
	case <-time.After(recvTimeout):
		t.Fatalf("timed out waiting for a message")
	}
	return nil
}

// Run executes the conformance suite against the backend built by f.
func Run(t *testing.T, f Factory) {
	t.Run("PairFIFO", func(t *testing.T) { eachWay(t, f, testPairFIFO) })
	t.Run("ConcurrentSenders", func(t *testing.T) { testConcurrentSenders(t, f) })
	t.Run("PayloadCopy", func(t *testing.T) { eachWay(t, f, testPayloadCopy) })
	t.Run("SelfSendRejected", func(t *testing.T) { testSelfSendRejected(t, f) })
	t.Run("StatsAccuracy", func(t *testing.T) { testStatsAccuracy(t, f) })
	t.Run("CloseSemantics", func(t *testing.T) { eachWay(t, f, testCloseSemantics) })
}

// FramesBeforeAttach: messages sent to an endpoint before anything is
// attached to it wait, and are delivered in order after Attach.
func FramesBeforeAttach(t *testing.T, f Factory) {
	eachWay(t, f, func(t *testing.T, f Factory, via via) {
		eps, _ := f(t, 2)
		for i := 0; i < 50; i++ {
			if err := eps[0].Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		time.Sleep(20 * time.Millisecond) // let them reach the receiver
		ch := via(eps[1])
		for i := 0; i < 50; i++ {
			if m := recvOne(t, ch); m.Req != uint64(i) {
				t.Fatalf("message %d: got req %d (sent before Attach)", i, m.Req)
			}
		}
	})
}

// testPairFIFO: messages on one directed pair arrive in send order.
// (And an endpoint is attached once.)
func testPairFIFO(t *testing.T, f Factory, via via) {
	eps, _ := f(t, 2)
	ch := via(eps[1])
	if err := eps[1].Attach(func(*wire.Msg) {}, func() {}); !errors.Is(err, transport.ErrAttached) {
		t.Fatalf("second Attach: err = %v, want ErrAttached", err)
	}
	const k = 200
	for i := 0; i < k; i++ {
		m := &wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i) + 1}
		if err := eps[0].Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		m := recvOne(t, ch)
		if m.Req != uint64(i)+1 {
			t.Fatalf("message %d: got req %d, want %d (FIFO violated)", i, m.Req, i+1)
		}
		if m.From != 0 {
			t.Fatalf("message %d: From = %d, want 0 (sender stamp)", i, m.From)
		}
	}
}

// testConcurrentSenders: many senders to one receiver; everything
// arrives exactly once and per-sender order is preserved.
func testConcurrentSenders(t *testing.T, f Factory) {
	const n, per = 4, 100
	eps, _ := f(t, n)
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := &wire.Msg{Kind: wire.KAck, To: 0, Req: uint64(i) + 1, Arg: uint64(s)}
				if err := eps[s].Send(m); err != nil {
					t.Errorf("sender %d send %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	next := make([]uint64, n)
	for got := 0; got < (n-1)*per; got++ {
		m := recvOne(t, eps[0].Recv())
		s := int(m.Arg)
		if s < 1 || s >= n {
			t.Fatalf("unexpected sender tag %d", s)
		}
		if m.Req != next[s]+1 {
			t.Fatalf("sender %d: got req %d, want %d (per-sender order violated)", s, m.Req, next[s]+1)
		}
		next[s] = m.Req
	}
	wg.Wait()
	for s := 1; s < n; s++ {
		if next[s] != per {
			t.Fatalf("sender %d: received %d messages, want %d", s, next[s], per)
		}
	}
}

// testPayloadCopy: Data round-trips intact, and mutating the message
// after Send does not corrupt the delivery (encode-at-send copy
// semantics).
func testPayloadCopy(t *testing.T, f Factory, via via) {
	eps, _ := f(t, 2)
	ch := via(eps[1])
	data := []byte{1, 2, 3, 4, 5}
	m := &wire.Msg{Kind: wire.KDiffReply, To: 1, Req: 42, Page: 7, Lock: -3, Arg: 1 << 40, B: 99, Data: data}
	if err := eps[0].Send(m); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Mutate everything the sender handed over.
	for i := range data {
		data[i] = 0xFF
	}
	m.Req = 0
	got := recvOne(t, ch)
	if got.Req != 42 || got.Page != 7 || got.Lock != -3 || got.Arg != 1<<40 || got.B != 99 {
		t.Fatalf("scalar fields corrupted: %+v", got)
	}
	if fmt.Sprint(got.Data) != fmt.Sprint([]byte{1, 2, 3, 4, 5}) {
		t.Fatalf("Data = %v, want [1 2 3 4 5]", got.Data)
	}
}

// testSelfSendRejected: a send to the endpoint's own node fails with
// an error naming it, delivers nothing and counts nothing — also while
// racing Close, where a self-delivering TCP endpoint once panicked
// sending on the inbox Close had just closed.
func testSelfSendRejected(t *testing.T, f Factory) {
	eps, _ := f(t, 2)
	st := &stats.Node{}
	eps[1].SetStats(st)
	if err := eps[1].Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: 77}); err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("self send: err = %v, want an error naming node 1", err)
	}
	if s := st.Snapshot(); s != (stats.Snapshot{}) {
		t.Fatalf("refused self send counted: %v", s)
	}
	// Only the peer's message arrives: the refused one was never queued.
	if err := eps[0].Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: 78}); err != nil || recvOne(t, eps[1].Recv()).Req != 78 {
		t.Fatalf("the peer's message was not the first delivered (send: %v)", err)
	}
	// Close while eight senders are inside Send (refusals, by the check
	// above); draining the inbox keeps them sending, not parked on it.
	for round := 0; round < 20; round++ {
		eps, closeAll := f(t, 2)
		go func() {
			for range eps[0].Recv() {
			}
		}()
		var started, done sync.WaitGroup
		started.Add(8)
		done.Add(8)
		for g := 0; g < 8; g++ {
			go func() {
				defer done.Done()
				started.Done()
				for i := 0; i < 2000; i++ {
					_ = eps[0].Send(&wire.Msg{Kind: wire.KAck, To: 0})
				}
			}()
		}
		started.Wait()
		closeAll()
		done.Wait()
	}
}

// testStatsAccuracy: per-node stats count exactly the encoded bytes
// and messages that crossed the substrate.
func testStatsAccuracy(t *testing.T, f Factory) {
	eps, _ := f(t, 2)
	st0, st1 := &stats.Node{}, &stats.Node{}
	eps[0].SetStats(st0)
	eps[1].SetStats(st1)
	var wantBytes int64
	const k = 50
	for i := 0; i < k; i++ {
		m := &wire.Msg{Kind: wire.KPageReply, To: 1, Req: uint64(i) + 1, Data: make([]byte, i*7)}
		wantBytes += int64(m.EncodedSize())
		if err := eps[0].Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < k; i++ {
		recvOne(t, eps[1].Recv())
	}
	if got := st0.MsgsSent.Load(); got != k {
		t.Fatalf("MsgsSent = %d, want %d", got, k)
	}
	if got := st0.BytesSent.Load(); got != wantBytes {
		t.Fatalf("BytesSent = %d, want %d", got, wantBytes)
	}
	if got := st1.MsgsRecv.Load(); got != k {
		t.Fatalf("MsgsRecv = %d, want %d", got, k)
	}
	if got := st1.BytesRecv.Load(); got != wantBytes {
		t.Fatalf("BytesRecv = %d, want %d", got, wantBytes)
	}
}

// testCloseSemantics: after Close, every endpoint goes down (its
// channel ends) and Send reports an error.
func testCloseSemantics(t *testing.T, f Factory, via via) {
	eps, closeAll := f(t, 2)
	chs := []<-chan *wire.Msg{via(eps[0]), via(eps[1])}
	closeAll()
	for i, ch := range chs {
		deadline := time.After(recvTimeout)
		for {
			closed := false
			select {
			case _, ok := <-ch:
				if !ok {
					closed = true
				}
				// Drain any message delivered before the close.
			case <-deadline:
				t.Fatalf("node %d: not down after transport Close", i)
			}
			if closed {
				break
			}
		}
	}
	if err := eps[0].Send(&wire.Msg{Kind: wire.KAck, To: 1}); err == nil {
		t.Fatalf("Send after Close succeeded, want error")
	}
	closeAll() // idempotent
}

package simnet

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// settled returns n's summed counters once they have stood still for
// longer than the link's longest timeout: nothing in flight, no
// retransmission due.
func settled(t *testing.T, n *Net) stats.Snapshot {
	t.Helper()
	prev := counted(n)
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(3 * rtoCap)
		cur := counted(n)
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters still moving after 10s: %v", cur)
		}
		prev = cur
	}
}

// checkFrames holds settled counters to the link's two balances: each
// message sent is delivered once, and the frames the endpoints sent
// (messages, retransmissions, acks and NACKs), less the dropped, plus
// the duplicated, are the frames they received (delivered, discarded
// at the sequence check, acks and NACKs).
func checkFrames(t *testing.T, s stats.Snapshot) {
	t.Helper()
	if s.MsgsSent != s.MsgsRecv || s.BytesSent != s.BytesRecv {
		t.Errorf("messages: sent %d (%d B), delivered %d (%d B)", s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
	}
	sent := s.MsgsSent + s.Retries + s.LinkAcks
	recv := s.MsgsRecv + s.DupRequests + s.LinkAcksRecv
	if sent-s.MsgsDropped+s.MsgsDuplicated != recv {
		t.Errorf("frames: sent %d - dropped %d + duplicated %d != received %d (%v)",
			sent, s.MsgsDropped, s.MsgsDuplicated, recv, s)
	}
}

// TestLinkExactlyOnceInOrder: 10 000 messages on every directed pair
// of 3 nodes, from two concurrent senders each, through 30% drops, 30%
// duplicates and 2ms latency spikes: every message arrives exactly
// once, each sender's in the order it sent them.
func TestLinkExactlyOnceInOrder(t *testing.T) {
	const nodes, senders, each = 3, 2, 5000
	n := newNet(t, Config{Nodes: nodes, Seed: 17, Faults: &FaultPlan{DropProb: 0.3, DupProb: 0.3, SpikeProb: 0.01, Spike: 2 * time.Millisecond}})
	var mu sync.Mutex
	next := make(map[[3]int64]int64) // (from, to, sender) -> next index
	var got atomic.Int64
	done := make(chan struct{})
	for i := 0; i < nodes; i++ {
		to := int64(i)
		if err := n.Endpoint(NodeID(i)).Attach(func(m *wire.Msg) {
			k := [3]int64{int64(m.From), to, int64(m.Req >> 32)}
			mu.Lock()
			if idx := int64(m.Req & (1<<32 - 1)); idx != next[k] {
				mu.Unlock()
				t.Errorf("%d->%d sender %d: message %d arrived when %d was next", k[0], k[1], k[2], idx, next[k])
				return
			}
			next[k]++
			mu.Unlock()
			if got.Add(1) == nodes*(nodes-1)*senders*each {
				close(done)
			}
		}, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if from == to {
				continue
			}
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(from, to, s int) {
					defer wg.Done()
					ep := n.Endpoint(NodeID(from))
					for i := 0; i < each; i++ {
						if err := ep.Send(&wire.Msg{Kind: wire.KAck, From: NodeID(from), To: NodeID(to), Req: uint64(s)<<32 | uint64(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(from, to, s)
			}
		}
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%d of %d messages delivered", got.Load(), nodes*(nodes-1)*senders*each)
	}
	s := settled(t, n)
	if got.Load() != nodes*(nodes-1)*senders*each {
		t.Fatalf("%d deliveries after settling", got.Load())
	}
	if s.MsgsDropped == 0 || s.MsgsDuplicated == 0 || s.MsgsSpiked == 0 || s.Retries == 0 {
		t.Fatalf("the fault plan did not bite: %v", s)
	}
	checkFrames(t, s)
}

// TestLinkLostAcksDeliverOnce: while every ack is lost the sender
// retransmits, and the receiver discards each copy: nothing is
// delivered twice. Once acks flow again the sender stops.
func TestLinkLostAcksDeliverOnce(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Faults: &FaultPlan{}})
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Recv()               // its acks arrive there
	back := &n.pairs[1][0] // b -> a: the acks' direction only
	back.mu.Lock()
	back.blockedUntil = time.Now().Add(time.Hour)
	back.mu.Unlock()
	for i := 0; i < 10; i++ {
		if err := a.Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if m := <-b.Recv(); m.Req != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, m.Req)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); n.eps[1].st.DupRequests.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("no retransmissions discarded with every ack lost: %v", counted(n))
		}
		time.Sleep(time.Millisecond)
	}
	back.mu.Lock()
	back.blockedUntil = time.Time{}
	back.mu.Unlock()
	s := settled(t, n)
	select {
	case m := <-b.Recv():
		t.Fatalf("delivered twice: %v", m)
	default:
	}
	if s.Retries == 0 || s.MsgsRecv != 10 {
		t.Fatalf("retries=%d delivered=%d, want >0 and 10", s.Retries, s.MsgsRecv)
	}
	checkFrames(t, s)
}

// TestLinkPartitionHeals: messages sent both ways into chaos.DefaultPlan's
// 60ms partition, and into its 40ms stall, all arrive, once and in
// order, soon after the fault heals.
func TestLinkPartitionHeals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*Net)
		dur   time.Duration
	}{
		{"partition", func(n *Net) { n.Partition(0, 1, 60*time.Millisecond) }, 60 * time.Millisecond},
		{"stall", func(n *Net) { n.StallNode(1, 40*time.Millisecond) }, 40 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newNet(t, Config{Nodes: 2, Faults: &FaultPlan{}})
			inbox := []<-chan *wire.Msg{n.Endpoint(0).Recv(), n.Endpoint(1).Recv()}
			start := time.Now()
			tc.fault(n)
			for i := 0; i < 20; i++ {
				for from := 0; from < 2; from++ {
					if err := n.Endpoint(NodeID(from)).Send(&wire.Msg{Kind: wire.KAck, To: NodeID(1 - from), Req: uint64(i)}); err != nil {
						t.Fatal(err)
					}
				}
				time.Sleep(time.Millisecond)
			}
			for to := 0; to < 2; to++ {
				for i := 0; i < 20; i++ {
					select {
					case m := <-inbox[to]:
						if m.Req != uint64(i) {
							t.Fatalf("node %d: message %d arrived as %d", to, i, m.Req)
						}
					case <-time.After(2 * time.Second):
						t.Fatalf("node %d: message %d lost", to, i)
					}
				}
			}
			// Back-off is capped: the last copy went out at most rtoCap
			// before the heal, so the next follows within rtoCap of it.
			if el := time.Since(start); el > tc.dur+2*rtoCap+20*time.Millisecond {
				t.Fatalf("delivered %v after a %v fault", el, tc.dur)
			}
			s := settled(t, n)
			if s.Retries == 0 {
				t.Fatalf("nothing retransmitted across the %s: %v", tc.name, s)
			}
			checkFrames(t, s)
		})
	}
}

// TestLinkAbsentWithoutFaults: without a fault plan there is no link:
// no header, no ack, no state, no clock; the counts are the messages'
// own.
func TestLinkAbsentWithoutFaults(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	if n.clock != nil {
		t.Fatal("a clock runs without a fault plan")
	}
	for i := range n.pairs {
		for j := range n.pairs[i] {
			if n.pairs[i][j].lk != nil {
				t.Fatalf("pair %d->%d has a link without a fault plan", i, j)
			}
		}
	}
	var bytes int64
	for i := 0; i < 50; i++ {
		m := &wire.Msg{Kind: wire.KDiffReply, To: 1, Req: uint64(i), Data: make([]byte, i*7)}
		bytes += int64(m.EncodedSize())
		if err := n.Endpoint(0).Send(m); err != nil {
			t.Fatal(err)
		}
		<-n.Endpoint(1).Recv()
	}
	want := stats.Snapshot{MsgsSent: 50, BytesSent: bytes, MsgsRecv: 50, BytesRecv: bytes}
	if s := counted(n); s != want {
		t.Fatalf("counted %v, want %v", s, want)
	}
}

// TestLinkRecoversAtClockPrecision: on an idle zero-latency pair, a
// message whose first copy was lost arrives a timeout after it was
// sent, the granularity term plus the clock's lateness: well under the
// millisecond a runtime timer fires late when every P is idle.
func TestLinkRecoversAtClockPrecision(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Seed: 3, Faults: &FaultPlan{DropProb: 0.2}})
	a, lk := n.Endpoint(0), n.pairs[0][1].lk
	arrived := make(chan time.Time, 1)
	if err := a.Attach(func(*wire.Msg) {}, func() {}); err != nil { // its acks arrive there
		t.Fatal(err)
	}
	if err := n.Endpoint(1).Attach(func(*wire.Msg) { arrived <- time.Now() }, func() {}); err != nil {
		t.Fatal(err)
	}
	const warm = 20 // until the estimator has the round trip
	var lost []time.Duration
	for i := 0; len(lost) < 25; i++ {
		if i == 1000 {
			t.Fatalf("only %d first copies lost in %d sends at 20%% loss", len(lost), i)
		}
		dropped := n.eps[0].st.MsgsDropped.Load()
		start := time.Now()
		if err := a.Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		firstLost := n.eps[0].st.MsgsDropped.Load() > dropped // an idle link transmits inside Send
		select {
		case at := <-arrived:
			if firstLost && i >= warm {
				lost = append(lost, at.Sub(start))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d lost", i)
		}
		waitAcked(t, lk)
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	if med := lost[len(lost)/2]; med >= ms {
		t.Fatalf("median send -> arrival of a message whose first copy was lost = %v, want < 1ms (%v)", med, lost)
	}
}

// TestLinkClockParksWhenIdle: once traffic over lossy links stops and
// every frame is acknowledged, the clock parks until a link arms again.
func TestLinkClockParksWhenIdle(t *testing.T) {
	const nodes, each = 3, 200
	n := newNet(t, Config{Nodes: nodes, Seed: 5, Faults: &FaultPlan{DropProb: 0.3}})
	var got atomic.Int64
	for i := 0; i < nodes; i++ {
		if err := n.Endpoint(NodeID(i)).Attach(func(*wire.Msg) { got.Add(1) }, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < each; i++ {
		for from := 0; from < nodes; from++ {
			to := NodeID((from + 1) % nodes)
			if err := n.Endpoint(NodeID(from)).Send(&wire.Msg{Kind: wire.KAck, To: to, Req: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := settled(t, n); s.MsgsRecv != nodes*each || s.Retries == 0 {
		t.Fatalf("delivered %d of %d, retries %d: want all, and some", s.MsgsRecv, nodes*each, s.Retries)
	}
	for deadline := time.Now().Add(time.Second); !n.clock.parked.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the clock is still running a second after the links went quiet")
		}
	}
}

// TestLinkClockStopsOnClose: Close returns once the clock has stopped,
// sleeping towards a due link or not, and leaves no goroutine behind.
func TestLinkClockStopsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := New(Config{Nodes: 3, Faults: &FaultPlan{DropProb: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Endpoint(NodeID(i)).Attach(func(*wire.Msg) {}, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // losses leave timeouts pending
		if err := n.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	select {
	case <-n.clock.done:
	default:
		t.Fatal("Close returned with the clock running")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Close, %d before New", runtime.NumGoroutine(), before)
		}
	}
}

// constLatency is a switchable one-way latency.
type constLatency struct{ ns atomic.Int64 }

func (l *constLatency) set(d time.Duration) { l.ns.Store(int64(d)) }
func (l *constLatency) model() Latency {
	return func(_, _ NodeID, _ int) time.Duration { return time.Duration(l.ns.Load()) }
}

// waitAcked waits until link lk has nothing unacknowledged.
func waitAcked(t *testing.T, lk *link) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		lk.mu.Lock()
		left := len(lk.unacked)
		lk.mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still unacknowledged", left)
		}
	}
}

func (l *link) estimate() rttEstimator {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.est
}

// TestRetransmitAtRTTScale: on a 4ms round trip with 20% loss, once the
// link's round trip is known a lost frame is retransmitted after a few
// milliseconds; and a frame that was retransmitted gives the estimator
// no sample (Karn's rule).
func TestRetransmitAtRTTScale(t *testing.T) {
	var lat constLatency
	lat.set(2 * ms)
	n := newNet(t, Config{Nodes: 2, Seed: 7, Latency: lat.model(), Faults: &FaultPlan{DropProb: 0.2}})
	a, b, lk := n.Endpoint(0), n.Endpoint(1), n.pairs[0][1].lk
	a.Recv()
	send := func(i int) time.Duration {
		start := time.Now()
		if err := a.Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if m := <-b.Recv(); m.Req != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, m.Req)
		}
		d := time.Since(start)
		waitAcked(t, lk)
		return d
	}
	const warm = 40
	for i := 0; i < warm; i++ {
		send(i)
	}
	if e := lk.estimate(); e.srtt < 4*ms || e.srtt > 12*ms {
		t.Fatalf("after warm-up: %+v, want srtt near the 4ms round trip", e)
	}
	var retx []time.Duration // send -> arrival of a message whose first copy was lost
	karn := 0
	for i := warm; i < 200; i++ {
		before, retries := lk.estimate(), n.eps[0].st.Retries.Load()
		d := send(i)
		if n.eps[0].st.Retries.Load() == retries {
			continue
		}
		karn++
		if after := lk.estimate(); after.srtt != before.srtt || after.rttvar != before.rttvar {
			t.Fatalf("frame %d was retransmitted yet moved the estimate: %+v -> %+v", i, before, after)
		}
		if d > 3*ms { // the first copy did not arrive; else only its ack was lost
			retx = append(retx, d)
		}
	}
	if karn < 20 || len(retx) < 10 {
		t.Fatalf("only %d retransmitted frames, %d lost first copies: scenario broken", karn, len(retx))
	}
	sort.Slice(retx, func(i, j int) bool { return retx[i] < retx[j] })
	// send -> arrival includes the 2ms flight of the retransmission.
	if med := retx[len(retx)/2] - 2*ms; med >= 15*ms {
		t.Fatalf("median retransmission came %v after the send, want < 15ms (retx %v)", med, retx)
	}
}

// TestNoSpuriousRetransmit: without loss the estimator must not invent
// retransmissions — not on a steady 10ms round trip with ten senders
// pipelining frames, and no more than a handful when the round trip
// jumps tenfold. "Not" is a rate, because the host is not quiet: a
// timer or a delivery now and then runs milliseconds late.
func TestNoSpuriousRetransmit(t *testing.T) {
	var lat constLatency
	lat.set(5 * ms)
	n := newNet(t, Config{Nodes: 2, Latency: lat.model(), Faults: &FaultPlan{}})
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Recv()
	var got atomic.Int64
	if err := b.Attach(func(*wire.Msg) { got.Add(1) }, func() {}); err != nil {
		t.Fatal(err)
	}
	sends := func(workers, each int) {
		t.Helper()
		want := got.Load() + int64(workers*each)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := a.Send(&wire.Msg{Kind: wire.KAck, To: 1}); err != nil {
						t.Error(err)
						return
					}
					time.Sleep(time.Duration(lat.ns.Load())) // about one frame in flight per worker
				}
			}()
		}
		wg.Wait()
		for deadline := time.Now().Add(5 * time.Second); got.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d delivered", got.Load(), want)
			}
		}
		waitAcked(t, n.pairs[0][1].lk)
	}
	sends(1, 10) // learn the round trip before going wide
	sends(10, 200)
	if r := n.eps[0].st.Retries.Load(); r > 60 {
		t.Fatalf("%d retransmissions of 2010 loss-free frames on a steady 10ms round trip, want <= 60 (3%%) (%+v)", r, n.pairs[0][1].lk.estimate())
	}
	lat.set(1 * ms)
	sends(1, 100)
	base := n.eps[0].st.Retries.Load()
	lat.set(10 * ms)
	sends(1, 100)
	// The first frame after the jump times out while its timeout doubles
	// from ~3ms past the new 20ms round trip (3 copies); the link keeps
	// the backed-off timeout until a frame sent once is acknowledged,
	// and that sample lifts the estimate over the new round trip.
	const bound = 12 // 3 by the argument above, the rest is host noise
	if r := n.eps[0].st.Retries.Load() - base; r > bound {
		t.Fatalf("%d retransmissions after the round trip went 2ms -> 20ms, want <= %d (%+v)", r, bound, n.pairs[0][1].lk.estimate())
	}
}

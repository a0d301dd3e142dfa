package simnet

import (
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// counted sums the counter sets the endpoints own.
func counted(n *Net) stats.Snapshot {
	var s stats.Snapshot
	for _, ep := range n.eps {
		s = s.Add(ep.st.Snapshot())
	}
	return s
}

func TestConfigValidationRejectsBadValues(t *testing.T) {
	bad := []Config{
		{Nodes: 2, Jitter: -time.Millisecond},
		{Nodes: 2, Faults: &FaultPlan{DropProb: -0.1}},
		{Nodes: 2, Faults: &FaultPlan{DropProb: 1.5}},
		{Nodes: 2, Faults: &FaultPlan{DupProb: 2}},
		{Nodes: 2, Faults: &FaultPlan{SpikeProb: -1}},
		{Nodes: 2, Faults: &FaultPlan{Spike: -time.Second}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// A valid plan is accepted.
	n := newNet(t, Config{Nodes: 2, Faults: &FaultPlan{DropProb: 0.5, DupProb: 0.5, SpikeProb: 0.5, Spike: time.Millisecond}})
	_ = n
}

// TestDropAndDupCounted: with heavy probabilities, frames are dropped
// and duplicated and the counters move, yet the link delivers every
// message exactly once, and the frames reconcile: sent, retransmitted
// and acks, less the dropped, plus the duplicated, are the delivered,
// the discarded and the acks received.
func TestDropAndDupCounted(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Seed: 3, Faults: &FaultPlan{DropProb: 0.3, DupProb: 0.3}})
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Recv() // its acks arrive there
	const total = 400
	for i := 0; i < total; i++ {
		if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		select {
		case m := <-b.Recv():
			if m.Req != uint64(i) {
				t.Fatalf("message %d arrived as %d", i, m.Req)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d", i, total)
		}
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("extra message %v", m)
	case <-time.After(50 * time.Millisecond):
	}
	s := settled(t, n)
	if s.MsgsDropped == 0 || s.MsgsDuplicated == 0 || s.Retries == 0 || s.DupRequests == 0 {
		t.Fatalf("faults not injected or not recovered: %v", s)
	}
	checkFrames(t, s)
}

// TestDuplicatesPreserveFIFO: duplicated frames are discarded and
// distinct messages keep their order.
func TestDuplicatesPreserveFIFO(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Seed: 11, Faults: &FaultPlan{DupProb: 0.4}})
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Recv() // its acks arrive there
	const total = 200
	for i := 0; i < total; i++ {
		if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if m := <-b.Recv(); m.Req != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, m.Req)
		}
	}
	s := settled(t, n)
	if s.MsgsDuplicated == 0 || s.DupRequests == 0 {
		t.Fatalf("duplicates not injected or not discarded: %v", s)
	}
	checkFrames(t, s)
}

func TestSpikeDelaysDelivery(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Seed: 5, Faults: &FaultPlan{SpikeProb: 1, Spike: 30 * time.Millisecond}})
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Recv() // its acks arrive there
	start := time.Now()
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("spike not applied: delivered in %v", el)
	}
	if n.eps[0].st.MsgsSpiked.Load() == 0 {
		t.Fatal("spike not counted")
	}
}

// TestPartitionBlocksThenHeals: messages on a partitioned pair drop
// (both directions) until the heal time, then flow again; both ends,
// and only they, count the partition.
func TestPartitionBlocksThenHeals(t *testing.T) {
	n := newNet(t, Config{Nodes: 3})
	a, b, c := n.Endpoint(0), n.Endpoint(1), n.Endpoint(2)
	n.Partition(0, 1, 60*time.Millisecond)
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&wire.Msg{Kind: wire.KAck, From: 1, To: 0, Req: 2}); err != nil {
		t.Fatal(err)
	}
	// An uninvolved pair is unaffected.
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 2, Req: 3}); err != nil {
		t.Fatal(err)
	}
	if m := <-c.Recv(); m.Req != 3 {
		t.Fatalf("third party got %+v", m)
	}
	if got := counted(n).MsgsDropped; got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	for i, want := range []int64{1, 1, 0} {
		if got := n.eps[i].st.Partitions.Load(); got != want {
			t.Fatalf("node %d counted %d partitions, want %d", i, got, want)
		}
	}
	time.Sleep(80 * time.Millisecond)
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: 4}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		if m.Req != 4 {
			t.Fatalf("post-heal got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a message sent after the partition's duration was not delivered")
	}
}

// TestStallDelaysDelivery: a stalled endpoint receives nothing until
// the stall lifts, then everything in order.
func TestStallDelaysDelivery(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	a, b := n.Endpoint(0), n.Endpoint(1)
	n.StallNode(1, 50*time.Millisecond)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		m := <-b.Recv()
		if m.Req != uint64(i) {
			t.Fatalf("message %d arrived as %d", i, m.Req)
		}
		if i == 0 {
			if el := time.Since(start); el < 40*time.Millisecond {
				t.Fatalf("stall not applied: first delivery after %v", el)
			}
		}
	}
	if n.eps[1].st.Stalls.Load() != 1 {
		t.Fatal("stall not counted")
	}
}

// TestFaultsNeverHitSelfSends: a self-addressed message is refused
// before fault injection sees it, so it draws and counts no fault.
func TestFaultsNeverHitSelfSends(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Seed: 9, Faults: &FaultPlan{DropProb: 1}})
	for i := 0; i < 20; i++ {
		if err := n.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 0, Req: uint64(i)}); err == nil {
			t.Fatal("self-send accepted")
		}
	}
	if s := counted(n); s != (stats.Snapshot{}) {
		t.Fatalf("self-send was counted: %v", s)
	}
}

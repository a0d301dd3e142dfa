package simnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// TestEarlierMessageInterruptsQueueWait: while the queue goroutine
// waits out one pair's delayed message, a zero-delay message from
// another pair must not sit out that delay with it.
func TestEarlierMessageInterruptsQueueWait(t *testing.T) {
	const delay = 400 * time.Millisecond
	n := newNet(t, Config{Nodes: 3, Latency: func(from, _ NodeID, _ int) time.Duration {
		if from == 0 {
			return delay // stands in for a spike on the 0→2 pair only
		}
		return 0
	}})
	a, b, c := n.Endpoint(0), n.Endpoint(1), n.Endpoint(2)
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 2, Req: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the queue goroutine start waiting for it
	start := time.Now()
	if err := b.Send(&wire.Msg{Kind: wire.KAck, From: 1, To: 2, Req: 2}); err != nil {
		t.Fatal(err)
	}
	if m := <-c.Recv(); m.Req != 2 {
		t.Fatalf("first arrival is req %d, want the undelayed one", m.Req)
	}
	if el := time.Since(start); el > delay/4 {
		t.Fatalf("undelayed message took %v behind another pair's %v delay", el, delay)
	}
	if m := <-c.Recv(); m.Req != 1 {
		t.Fatalf("second arrival is req %d", m.Req)
	}
}

// TestDirectDeliveryFIFOFallback pins which path a message takes: at
// an idle receiver it is delivered when Send returns; behind a pending
// stall, or behind a message queued there, it takes the queue, in
// order; once those clear, delivery is direct again.
func TestDirectDeliveryFIFOFallback(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	a := n.Endpoint(0)
	inbox := n.Endpoint(1).Recv()
	send := func(req uint64) {
		t.Helper()
		if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(want uint64) {
		t.Helper()
		select {
		case m := <-inbox:
			if m.Req != want {
				t.Fatalf("received req %d, want %d", m.Req, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("req %d never arrived", want)
		}
	}
	send(1)
	if len(inbox) != 1 {
		t.Fatal("message to an idle receiver was not delivered when Send returned")
	}
	recv(1)

	n.StallNode(1, 30*time.Millisecond)
	start := time.Now()
	send(2) // stalled: must queue
	send(3) // behind a queued message: must queue, not overtake
	if len(inbox) != 0 {
		t.Fatal("message delivered directly to a stalled endpoint")
	}
	recv(2)
	recv(3)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("stall not applied: delivered after %v", el)
	}
	// The stall is over, not "ever happened": direct again. The queue
	// goroutine may still be inside message 3's delivery for an instant.
	deadline := time.Now().Add(5 * time.Second)
	for req := uint64(4); ; req++ {
		send(req)
		direct := len(inbox) == 1
		recv(req)
		if direct {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery never went direct again after the stall ended")
		}
	}
}

// TestPairFIFOMixedDirectAndQueued: several senders hammer one
// receiver while spikes and stalls keep switching messages between the
// direct and the queued path. Per-pair order
// must hold and every counter must match what was sent.
func TestPairFIFOMixedDirectAndQueued(t *testing.T) {
	const senders, per = 3, 1500
	n := newNet(t, Config{Nodes: senders + 1, Seed: 21,
		Faults: &FaultPlan{SpikeProb: 0.02, Spike: 100 * time.Microsecond}})
	sts := make([]*stats.Node, senders+1)
	for i := range sts {
		sts[i] = &stats.Node{}
		n.Endpoint(NodeID(i)).SetStats(sts[i])
	}
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := n.Endpoint(id).Send(&wire.Msg{Kind: wire.KAck, From: id, To: 0, Arg: uint64(j), Data: []byte{byte(j)}}); err != nil {
					t.Error(err)
					return
				}
				if id == 1 && j%300 == 150 {
					n.StallNode(0, 200*time.Microsecond)
				}
			}
		}(NodeID(s))
	}
	next := make([]uint64, senders+1)
	for got := 0; got < senders*per; got++ {
		select {
		case m := <-n.Endpoint(0).Recv():
			if m.Arg != next[m.From] || len(m.Data) != 1 || m.Data[0] != byte(m.Arg) {
				t.Fatalf("from %d: got message %d (payload %v), want %d", m.From, m.Arg, m.Data, next[m.From])
			}
			next[m.From]++
		case <-time.After(10 * time.Second):
			t.Fatalf("stuck after %d of %d messages", got, senders*per)
		}
	}
	wg.Wait()
	var sent, sentBytes int64
	for _, st := range sts[1:] {
		sent += st.MsgsSent.Load()
		sentBytes += st.BytesSent.Load()
	}
	if r := sts[0]; sent != senders*per || r.MsgsRecv.Load() != sent || r.BytesRecv.Load() != sentBytes {
		t.Fatalf("endpoint stats: sent %d msgs/%d bytes, received %d/%d", sent, sentBytes, r.MsgsRecv.Load(), r.BytesRecv.Load())
	}
}

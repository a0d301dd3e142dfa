package nodecore

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// batchByHand installs the batching layer with its latency-cap ticker
// out of the way, so the test controls every flush.
func batchByHand(r *Runtime) { r.batcher = newBatcher(r, time.Hour) }

// TestSendBatchedFlushDeliversInOrder: queued one-way messages travel
// in a single KBatch frame on FlushBatches and are dispatched in
// enqueue order.
func TestSendBatchedFlushDeliversInOrder(t *testing.T) {
	a, b, _, _ := pair(t)
	batchByHand(a)
	var mu sync.Mutex
	var got []uint64
	b.HandleInline(wire.KEvtSet, func(m *wire.Msg) {
		mu.Lock()
		got = append(got, m.Arg)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		if err := a.SendBatched(&wire.Msg{Kind: wire.KEvtSet, To: 1, Arg: uint64(i)}); err != nil {
			t.Fatalf("SendBatched %d: %v", i, err)
		}
	}
	a.FlushBatches()
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 members delivered", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, arg := range got {
		if arg != uint64(i) {
			t.Fatalf("members out of order: %v", got)
		}
	}
	if n := a.Stats().BatchedMsgs.Load(); n != 3 {
		t.Fatalf("BatchedMsgs = %d, want 3", n)
	}
	if n := a.Stats().FlushedBatches.Load(); n != 1 {
		t.Fatalf("FlushedBatches = %d, want 1", n)
	}
}

// TestSingleMemberFlushSkipsFraming: a lone queued message goes out as
// itself — a one-member batch would only add bytes.
func TestSingleMemberFlushSkipsFraming(t *testing.T) {
	a, b, _, _ := pair(t)
	batchByHand(a)
	delivered := make(chan uint64, 1)
	b.HandleInline(wire.KEvtSet, func(m *wire.Msg) { delivered <- m.Arg })
	if err := a.SendBatched(&wire.Msg{Kind: wire.KEvtSet, To: 1, Arg: 7}); err != nil {
		t.Fatal(err)
	}
	a.FlushBatches()
	select {
	case arg := <-delivered:
		if arg != 7 {
			t.Fatalf("Arg = %d", arg)
		}
	case <-time.After(time.Second):
		t.Fatal("single queued message never delivered")
	}
	if n := a.Stats().FlushedBatches.Load(); n != 0 {
		t.Fatalf("FlushedBatches = %d for a single-member queue, want 0", n)
	}
}

// TestDirectSendPiggybacksPending: a direct Send to a destination with
// queued messages carries them in the same frame, ahead of it.
func TestDirectSendPiggybacksPending(t *testing.T) {
	a, b, _, _ := pair(t)
	batchByHand(a)
	var mu sync.Mutex
	var sets []uint64
	b.HandleInline(wire.KEvtSet, func(m *wire.Msg) {
		mu.Lock()
		sets = append(sets, m.Arg)
		mu.Unlock()
	})
	for i := 0; i < 2; i++ {
		if err := a.SendBatched(&wire.Msg{Kind: wire.KEvtSet, To: 1, Arg: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The call's request is a direct Send; its reply proves the shared
	// frame arrived, and the inline one-way handlers ran while the frame's
	// members were dispatched — before the request's own handler.
	reply, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1, Arg: 41})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Arg != 42 {
		t.Fatalf("reply Arg = %d", reply.Arg)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sets) != 2 || sets[0] != 0 || sets[1] != 1 {
		t.Fatalf("sets = %v, want [0 1] delivered ahead of the call", sets)
	}
	if n := a.Stats().BatchedMsgs.Load(); n != 3 {
		t.Fatalf("BatchedMsgs = %d, want 3 (2 pending + 1 direct)", n)
	}
	if n := a.Stats().FlushedBatches.Load(); n != 1 {
		t.Fatalf("FlushedBatches = %d, want 1", n)
	}
}

// TestCallBatchedGroupsSameDestination: same-destination requests
// share one first-transmission frame and still reply individually.
func TestCallBatchedGroupsSameDestination(t *testing.T) {
	a, _, _, _ := pair(t)
	batchByHand(a)
	msgs := []*wire.Msg{
		{Kind: wire.KPageReq, To: 1, Arg: 10},
		{Kind: wire.KPageReq, To: 1, Arg: 20},
	}
	replies, err := a.CallBatched(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 || replies[0].Arg != 11 || replies[1].Arg != 21 {
		t.Fatalf("replies = %+v", replies)
	}
	if n := a.Stats().FlushedBatches.Load(); n != 1 {
		t.Fatalf("FlushedBatches = %d, want 1", n)
	}
	if n := a.Stats().BatchedMsgs.Load(); n != 2 {
		t.Fatalf("BatchedMsgs = %d, want 2", n)
	}
}

// TestCallBatchedPartialFailure: a member that fails costs only its own
// reply. Of three peers one never answers: the two live replies come
// back in their slots, the dead one's slot is nil, the error names it,
// and no goroutine outlives the call (the cleanup's Close would hang).
func TestCallBatchedPartialFailure(t *testing.T) {
	for _, batch := range []bool{false, true} {
		_, rts, _ := echoNet(t, 4)
		a := rts[0]
		if batch {
			batchByHand(a)
		}
		a.SetCallTimeout(100 * time.Millisecond)
		rts[2].Handle(wire.KDiffReq, func(*wire.Msg) {}) // never replies
		replies, err := a.CallBatched([]*wire.Msg{
			{Kind: wire.KPageReq, To: 1, Arg: 10},
			{Kind: wire.KDiffReq, To: 2, Page: 7},
			{Kind: wire.KPageReq, To: 3, Arg: 30},
		})
		if err == nil || !strings.Contains(err.Error(), wire.KDiffReq.String()+" to 2 (page 7") {
			t.Fatalf("batch=%v: err = %v, want the timeout of the call to node 2", batch, err)
		}
		if len(replies) != 3 || replies[0] == nil || replies[0].Arg != 11 || replies[1] != nil ||
			replies[2] == nil || replies[2].Arg != 31 {
			t.Fatalf("batch=%v: replies = %+v, want [Arg 11, nil, Arg 31]", batch, replies)
		}
		if calls := a.PendingCalls(); len(calls) != 0 {
			t.Fatalf("batch=%v: calls still pending: %+v", batch, calls)
		}
	}
}

// TestMalformedBatchDropped: a KBatch frame that does not decode is
// dropped whole without disturbing the runtime.
func TestMalformedBatchDropped(t *testing.T) {
	a, _, _, _ := pair(t)
	if err := a.ep.Send(&wire.Msg{Kind: wire.KBatch, From: 0, To: 1, Data: []byte{0xff, 0xff, 0x01}}); err != nil {
		t.Fatal(err)
	}
	// The receiver must still serve requests after eating the frame.
	reply, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1, Arg: 1})
	if err != nil {
		t.Fatalf("call after malformed batch: %v", err)
	}
	if reply.Arg != 2 {
		t.Fatalf("reply Arg = %d", reply.Arg)
	}
}

// TestRetryLoopHonorsDeadline: a call to a silent handler reports the
// timeout, naming it, once its deadline is spent, and no later.
func TestRetryLoopHonorsDeadline(t *testing.T) {
	a, b, _, _ := pair(t)
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {}) // never replies
	start := time.Now()
	_, err := a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 40*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call to a silent handler succeeded")
	}
	if !strings.Contains(err.Error(), "timed out after 40ms") {
		t.Fatalf("error %q does not describe the timeout", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("deadline 40ms but call returned after %v", elapsed)
	}
}

// TestBatchedFlushReentry: a flush from A runs B's inline handler on
// the flushing goroutine (the simulator delivers a due-now frame on its
// sender); that handler sends to A, whose inline handler sends to B
// through A's batcher — the batcher A is flushing. The chain must not
// block on the flush in progress, and B must see the members in
// enqueue order, the last as it was when Send returned.
func TestBatchedFlushReentry(t *testing.T) {
	a, b, _, _ := pair(t)
	batchByHand(a)
	batchByHand(b)
	var mu sync.Mutex
	var got []uint64
	b.HandleInline(wire.KEvtSet, func(m *wire.Msg) {
		mu.Lock()
		got = append(got, m.Arg)
		mu.Unlock()
		if m.Arg == 0 {
			_ = b.Send(&wire.Msg{Kind: wire.KEvtSet, To: 0})
		}
	})
	a.HandleInline(wire.KEvtSet, func(*wire.Msg) {
		m := &wire.Msg{Kind: wire.KEvtSet, To: 1, Arg: 2}
		_ = a.Send(m)
		m.Arg = 99 // Send has returned: m is the caller's to reuse
	})
	for i := 0; i < 2; i++ {
		if err := a.SendBatched(&wire.Msg{Kind: wire.KEvtSet, To: 1, Arg: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan struct{})
	go func() {
		a.FlushBatches()
		close(flushed)
	}()
	deadline := time.After(time.Second)
	select {
	case <-flushed:
	case <-deadline:
		t.Fatal("the A→B→A→B chain blocked on A's flush")
	}
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of 3 members delivered", n)
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, arg := range got {
		if arg != uint64(i) {
			t.Fatalf("members out of enqueue order: %v", got)
		}
	}
}

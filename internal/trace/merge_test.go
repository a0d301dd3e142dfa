package trace

import (
	"strings"
	"testing"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// A send whose event carries an out-of-range Node is dropped by the
// merge — but it must also be un-counted from the availability
// multiset, or every matching recv stays unready and is emitted by
// the malformed-input fallback in timestamp-scrambled order.
func TestMergeUncountsDroppedMalformedSend(t *testing.T) {
	kind := uint8(wire.KWriteReq)
	streams := []Stream{
		// The malformed event: recorded in stream 0 but stamped with a
		// nonsense node id, as a corrupted ring slot would be.
		{Node: 0, EpochUnixNs: 0, Events: []Event{
			{TS: 0, Req: 42, Arg: MsgArg(kind), Node: 99, Peer: 1, Type: EvSend},
		}},
		{Node: 1, EpochUnixNs: 0, Events: []Event{
			{TS: 2, Req: 42, Arg: MsgArg(kind), Node: 1, Peer: 0, Type: EvRecv},
		}},
		{Node: 2, EpochUnixNs: 0, Events: []Event{
			{TS: 5, Page: 1, Peer: -1, Lock: -1, Node: 2, Type: EvFaultBegin},
		}},
	}
	merged := Merge(streams)
	if len(merged) != 2 {
		t.Fatalf("merged %d events, want 2 (malformed send dropped)", len(merged))
	}
	for _, e := range merged {
		if e.Node == 99 {
			t.Fatalf("malformed event leaked into the timeline: %+v", e)
		}
	}
	// With the send's availability un-counted, the recv (TS 2) is ready
	// immediately and must precede node 2's event (TS 5). The buggy
	// bookkeeping held the recv hostage until the fallback, emitting
	// node 2's later event first.
	if merged[0].Type != EvRecv || merged[0].Node != 1 {
		t.Fatalf("order = [%v@n%d %v@n%d], want recv@n1 first",
			merged[0].Type, merged[0].Node, merged[1].Type, merged[1].Node)
	}
}

// CheckCausal failure modes, each on a hand-built merged timeline.

func TestCheckCausalClockRegression(t *testing.T) {
	merged := []MergedEvent{
		{Event: Event{Node: 0, Type: EvFaultBegin}, VC: vclock.VC{2, 0}},
		{Event: Event{Node: 0, Type: EvFaultEnd}, VC: vclock.VC{1, 0}},
	}
	err := CheckCausal(merged)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("err = %v, want clock-regression error", err)
	}
}

func TestCheckCausalRecvBeforeSend(t *testing.T) {
	kind := uint8(wire.KAck)
	merged := []MergedEvent{
		{Event: Event{Node: 1, Req: 7, Arg: MsgArg(kind), Type: EvRecv}, VC: vclock.VC{0, 1}},
		{Event: Event{Node: 0, Req: 7, Arg: MsgArg(kind), Type: EvSend}, VC: vclock.VC{1, 0}},
	}
	err := CheckCausal(merged)
	if err == nil || !strings.Contains(err.Error(), "before any matching send") {
		t.Fatalf("err = %v, want recv-before-send error", err)
	}
}

func TestCheckCausalRecvNotCoveringSend(t *testing.T) {
	kind := uint8(wire.KAck)
	merged := []MergedEvent{
		{Event: Event{Node: 0, Req: 9, Arg: MsgArg(kind), Type: EvSend}, VC: vclock.VC{1, 0}},
		{Event: Event{Node: 1, Req: 9, Arg: MsgArg(kind), Type: EvRecv}, VC: vclock.VC{0, 1}},
	}
	err := CheckCausal(merged)
	if err == nil || !strings.Contains(err.Error(), "does not cover") {
		t.Fatalf("err = %v, want recv-not-covering-send error", err)
	}
}

// Packing helpers for the new access/mark events.

func TestAccessArgRoundTrip(t *testing.T) {
	e := Event{Arg: AccessArg(136, 8)}
	if e.AccessOff() != 136 || e.AccessLen() != 8 {
		t.Fatalf("round trip = (%d, %d), want (136, 8)", e.AccessOff(), e.AccessLen())
	}
}

func TestMarkArgRoundTrip(t *testing.T) {
	e := Event{Arg: MarkArg(MarkJoinAcquire, 3)}
	if e.MarkPhase() != MarkJoinAcquire || e.MarkGen() != 3 {
		t.Fatalf("round trip = (%d, %d), want (%d, 3)", e.MarkPhase(), e.MarkGen(), MarkJoinAcquire)
	}
}

func TestHashZeroMatchesHashBytes(t *testing.T) {
	for _, n := range []int{0, 1, 8, 64} {
		if got, want := HashZero(n), HashBytes(make([]byte, n)); got != want {
			t.Fatalf("HashZero(%d) = %x, HashBytes(zeros) = %x", n, got, want)
		}
	}
	if HashBytes([]byte{1}) == HashBytes([]byte{2}) {
		t.Fatal("distinct bytes hash equal")
	}
}

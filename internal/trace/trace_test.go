package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvSend, 1, 2, 3, 4, 5, 0)
	tr.MergeClock(vclock.New(4))
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Node() != -1 {
		t.Fatalf("nil tracer Node() = %d, want -1", tr.Node())
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil || tr.Clock() != nil {
		t.Fatal("nil tracer leaked state")
	}
	s := tr.Stream()
	if s.Node != -1 || len(s.Events) != 0 {
		t.Fatalf("nil tracer stream = %+v", s)
	}
}

func TestRingRecordsAndOrders(t *testing.T) {
	tr := New(2, 4, 64)
	for i := 0; i < 10; i++ {
		tr.Emit(EvSend, int32(i%4), uint64(i+1), -1, -1, MsgArg(uint8(wire.KReadReq)), 0)
	}
	evs := tr.Events()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Node != 2 {
			t.Fatalf("event %d: node %d, want 2", i, e.Node)
		}
		if e.Req != uint64(i+1) {
			t.Fatalf("event %d: req %d, want %d (order broken)", i, e.Req, i+1)
		}
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("event %d: timestamp regressed", i)
		}
		// Every emit ticks the node's own component.
		if e.VC[2] != uint32(i+1) {
			t.Fatalf("event %d: own clock %d, want %d", i, e.VC[2], i+1)
		}
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	tr := New(0, 2, 8)
	for i := 0; i < 20; i++ {
		tr.Emit(EvRecv, 1, uint64(i), -1, -1, 0, 0)
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 || evs[0].Req != 12 || evs[7].Req != 19 {
		t.Fatalf("retained window wrong: %d events, first req %d, last req %d", len(evs), evs[0].Req, evs[len(evs)-1].Req)
	}
}

func TestMergeClockAdvancesStamps(t *testing.T) {
	tr := New(1, 3, 16)
	tr.Emit(EvSend, 0, 1, -1, -1, 0, 0)
	other := vclock.New(3)
	other.Tick(0)
	other.Tick(0)
	tr.MergeClock(other)
	tr.Emit(EvRecv, 0, 1, -1, -1, 0, 0)
	evs := tr.Events()
	if evs[1].VC[0] != 2 {
		t.Fatalf("merged component = %d, want 2", evs[1].VC[0])
	}
	if evs[1].VC[1] != 2 {
		t.Fatalf("own component = %d, want 2", evs[1].VC[1])
	}
}

// twoNodeStreams fabricates a send on node 0 whose recv on node 1 has
// an *earlier* absolute timestamp (clock skew), to prove the merge
// orders by causality, not wall clock.
func twoNodeStreams() []Stream {
	kind := uint8(wire.KReadReq)
	send := Event{TS: 100, Req: 7, Arg: MsgArg(kind), Node: 0, Peer: 1, Type: EvSend}
	recv := Event{TS: 50, Req: 7, Arg: MsgArg(kind), Node: 1, Peer: 0, Type: EvRecv}
	return []Stream{
		{Node: 0, EpochUnixNs: 1000, Events: []Event{send}},
		{Node: 1, EpochUnixNs: 1000, Events: []Event{recv}},
	}
}

func TestMergeOrdersSendBeforeRecvDespiteSkew(t *testing.T) {
	merged := Merge(twoNodeStreams())
	if len(merged) != 2 {
		t.Fatalf("merged %d events, want 2", len(merged))
	}
	if merged[0].Type != EvSend || merged[1].Type != EvRecv {
		t.Fatalf("order = [%v %v], want [send recv]", merged[0].Type, merged[1].Type)
	}
	if !merged[1].VC.Covers(merged[0].VC) {
		t.Fatalf("recv clock %v does not cover send clock %v", merged[1].VC, merged[0].VC)
	}
	if err := CheckCausal(merged); err != nil {
		t.Fatalf("CheckCausal: %v", err)
	}
}

func TestMergeToleratesUnmatchedRecv(t *testing.T) {
	// A recv whose send predates the ring window must not deadlock the
	// merge: with no available send, the recv is ready immediately.
	streams := []Stream{{Node: 1, EpochUnixNs: 0, Events: []Event{
		{TS: 10, Req: 99, Arg: MsgArg(uint8(wire.KAck)), Node: 1, Peer: 0, Type: EvRecv},
	}}}
	merged := Merge(streams)
	if len(merged) != 1 {
		t.Fatalf("merged %d events, want 1", len(merged))
	}
	if err := CheckCausal(merged); err != nil {
		t.Fatalf("CheckCausal: %v", err)
	}
}

func TestMergeMatchesRetransmissions(t *testing.T) {
	kind := uint8(wire.KWriteReq)
	streams := []Stream{
		{Node: 0, EpochUnixNs: 0, Events: []Event{
			{TS: 10, Req: 5, Arg: MsgArg(kind), Node: 0, Peer: 1, Type: EvSend},
			{TS: 30, Req: 5, Arg: MsgArg(kind), Node: 0, Peer: 1, Type: EvSend},
		}},
		{Node: 1, EpochUnixNs: 0, Events: []Event{
			{TS: 20, Req: 5, Arg: MsgArg(kind), Node: 1, Peer: 0, Type: EvRecv},
			{TS: 40, Req: 5, Arg: MsgArg(kind), Node: 1, Peer: 0, Type: EvRecv},
		}},
	}
	merged := Merge(streams)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	if err := CheckCausal(merged); err != nil {
		t.Fatalf("CheckCausal: %v", err)
	}
}

func TestWriteTimelineRendersEveryEvent(t *testing.T) {
	merged := Merge(twoNodeStreams())
	var b strings.Builder
	if err := WriteTimeline(&b, merged); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "send") || !strings.Contains(out, "recv") || !strings.Contains(out, "read-req") {
		t.Fatalf("timeline missing expected content:\n%s", out)
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	streams := twoNodeStreams()
	streams[0].Events = append(streams[0].Events,
		Event{TS: 200, Dur: 90, Page: 3, Lock: -1, Node: 0, Peer: -1, Type: EvFaultEnd, Arg: 1},
		Event{TS: 300, Dur: 40, Lock: 2, Page: -1, Node: 0, Peer: 1, Type: EvLockGrant},
		Event{TS: 400, Node: 0, Peer: 1, Type: EvChaos, Arg: ChaosDrop},
	)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, streams); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var phases []string
	tids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
		tids[ev["tid"].(float64)] = true
	}
	joined := strings.Join(phases, "")
	for _, want := range []string{"M", "X", "s", "f", "i"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("no %q phase in export; phases = %v", want, phases)
		}
	}
	if !tids[0] || !tids[1] {
		t.Fatalf("expected tracks for nodes 0 and 1, got %v", tids)
	}
}

func TestStreamJSONRoundTrips(t *testing.T) {
	tr := New(0, 2, 16)
	tr.Emit(EvFaultBegin, -1, 0, 7, -1, 0, 0)
	tr.Emit(EvFaultEnd, -1, 0, 7, -1, 0, 3*time.Millisecond)
	raw, err := json.Marshal(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	var s Stream
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.Node != 0 || len(s.Events) != 2 || s.Events[1].Dur != int64(3*time.Millisecond) {
		t.Fatalf("round trip mangled stream: %+v", s)
	}
}

func TestDescribeCoversAllTypes(t *testing.T) {
	for typ := EvFaultBegin; typ < numTypes; typ++ {
		e := Event{Type: typ, Peer: 1, Page: 2, Lock: 3, Arg: 1, Dur: 1000}
		if d := Describe(e); d == "" || d == "invalid" {
			t.Fatalf("Describe(%v) = %q", typ, d)
		}
		if typ.String() == "invalid" || typ.String() == "none" {
			t.Fatalf("type %d has no name", typ)
		}
	}
}

func TestConcurrentEmitAndRead(t *testing.T) {
	tr := New(0, 2, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			tr.Emit(EvSend, 1, uint64(i), -1, -1, 0, 0)
		}
	}()
	for {
		select {
		case <-done:
			if n := len(tr.Events()); n != 64 {
				t.Fatalf("retained %d events, want 64", n)
			}
			return
		default:
			tr.Events() // must never tear or race (run with -race)
		}
	}
}

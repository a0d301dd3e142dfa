package lrc

import (
	"encoding/hex"
	"testing"

	"repro/internal/mem"
	"repro/internal/vclock"
)

// TestEncodersGoldenBytes pins the payload formats: these bytes cross
// between processes and the experiment tables' byte counts hang off
// them. The strings were captured before the codec moved onto
// wire.Dec.
func TestEncodersGoldenBytes(t *testing.T) {
	ivs := []*interval{
		{node: 1, seq: 3, vc: vclock.VC{0, 3, 1}, pages: []mem.PageID{2, 7, 300}},
		{node: 2, seq: 200, vc: vclock.VC{0, 0, 200}, pages: nil},
	}
	pushes := []pushEntry{
		{reader: 0, writer: 1, seq: 3, pg: 2, diff: []byte{9, 9, 9}},
		{reader: 2, writer: 1, seq: 130, pg: 700, diff: nil},
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"intervals", encodeIntervals(ivs), "0201030300000000000300000001000000030207ac0202c80103000000000000000000c800000000"},
		{"no intervals", encodeIntervals(nil), "00"},
		{"diff list", encodeDiffList([]seqDiff{{seq: 1, diff: []byte{1, 2}}, {seq: 300, diff: nil}}), "0201020102ac0200"},
		{"grant", encodeGrant(ivs, pushes), "0201030300000000000300000001000000030207ac0202c80103000000000000000000c80000000002000103020309090902018201bc0500"},
		{"grant carrying nothing", encodeGrant(ivs, nil), "0201030300000000000300000001000000030207ac0202c80103000000000000000000c800000000"},
		{"barrier payload", encodeBarrierPayload(encodeIntervals(ivs), pushes), "280201030300000000000300000001000000030207ac0202c80103000000000000000000c80000000002000103020309090902018201bc0500"},
		{"empty barrier payload", encodeBarrierPayload(nil, nil), "0000"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes as %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestDecodeIntervalsAllocBudget: decoding a grant's interval list
// through wire.Dec allocates what the hand-written decoder did — the
// list, and per interval its record, clock and page list; the cursor
// itself is a value on the stack.
func TestDecodeIntervalsAllocBudget(t *testing.T) {
	buf := encodeIntervals([]*interval{
		{node: 1, seq: 3, vc: vclock.VC{0, 3, 1}, pages: []mem.PageID{2, 7, 300}},
		{node: 2, seq: 200, vc: vclock.VC{0, 0, 200}, pages: []mem.PageID{1}},
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeIntervals(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("decodeIntervals: %.0f allocs for two intervals, budget 7", allocs)
	}
}

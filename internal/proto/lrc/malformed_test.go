package lrc

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/vclock"
)

// TestDecodersSurviveHostileInput: every payload decoder is fed, for a
// valid payload, each of its strict prefixes (but a grant's interval
// set, which is a grant carrying no diffs), the payload with a
// trailing byte, and element counts of 2^62 and 2^30 where a list
// begins. Over TCP these bytes come from another process: the outcome
// must be an error — never a panic, never an allocation sized by a
// count the input cannot back.
func TestDecodersSurviveHostileInput(t *testing.T) {
	ivs := []*interval{
		{node: 1, seq: 3, vc: vclock.VC{0, 3, 1}, pages: []mem.PageID{2, 7, 300}},
		{node: 2, seq: 200, vc: vclock.VC{0, 0, 200}},
	}
	huge := func(prefix []byte, count uint64) []byte { return binary.AppendUvarint(prefix, count) }
	oneInterval := func(npages uint64) []byte { // count 1, node, seq, clock, then the page count
		return huge(vclock.VC{1}.Encode([]byte{1, 0, 1}), npages)
	}
	for _, tc := range []struct {
		name    string
		valid   []byte
		hostile [][]byte
		decode  func([]byte) error
		whole   int // a strict prefix that is a payload of its own: a grant's interval set
	}{
		{"intervals", encodeIntervals(ivs),
			[][]byte{huge(nil, 1<<62), huge(nil, 1<<30), oneInterval(1 << 62), oneInterval(1 << 30)},
			func(b []byte) error { _, err := decodeIntervals(b); return err }, 0},
		{"diff list", encodeDiffList([]seqDiff{{seq: 1, diff: []byte{1, 2}}, {seq: 300}}),
			[][]byte{huge(nil, 1<<62), huge(nil, 1<<30), huge([]byte{1, 1}, 1<<62)},
			func(b []byte) error { _, err := decodeDiffList(b); return err }, 0},
		{"grant", encodeGrant(ivs, []pushEntry{{reader: 2, writer: 1, seq: 130, pg: 700, diff: []byte{9}}}),
			[][]byte{huge(nil, 1<<62), huge([]byte{0}, 1<<62), huge([]byte{0}, 1<<30), huge([]byte{0, 1, 2, 1, 3, 7}, 1<<62)},
			func(b []byte) error { _, _, err := decodeGrant(b); return err }, len(encodeIntervals(ivs))},
		{"barrier payload", encodeBarrierPayload(encodeIntervals(ivs), []pushEntry{{reader: 2, writer: 1, seq: 130, pg: 700, diff: []byte{9}}}),
			[][]byte{huge(nil, 1<<62), huge([]byte{0}, 1<<62), huge([]byte{0}, 1<<30), huge([]byte{0, 1, 2, 1, 3, 7}, 1<<62)},
			func(b []byte) error { _, _, err := decodeBarrierPayload(b); return err }, 0},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Errorf("%s: the valid payload: %v", tc.name, err)
		}
		for i := 1; i < len(tc.valid); i++ {
			if tc.decode(tc.valid[:i]) == nil && i != tc.whole {
				t.Errorf("%s: decoded with only %d of %d bytes", tc.name, i, len(tc.valid))
			}
		}
		if tc.decode(append(append([]byte(nil), tc.valid...), 0)) == nil {
			t.Errorf("%s: decoded with a trailing byte", tc.name)
		}
		for _, h := range tc.hostile {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(h)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: decoded hostile input %x", tc.name, h)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
				t.Errorf("%s: %d input bytes (%x) made the decoder allocate %d", tc.name, len(h), h, grew)
			}
		}
	}
}

// TestHostileDiffRange: a diff request's range comes from another
// process and is compared in full width. An inverted range, seq 0, a
// range past 2^32 (served as [Arg, 3] when the ends were cut to 32
// bits), a start past 2^32 and a page this node never wrote each get an
// empty KDiffReply; an end past 2^32 serves every diff from Arg on.
func TestHostileDiffRange(t *testing.T) {
	s := newDiffServer(t, 8, false)
	for i, pg := range []mem.PageID{3, 3, 5, 3} { // page 3's diffs: seqs 1, 2 and 4
		s.write(t, pg, 0, uint64(i+1))
		s.e.closeInterval()
	}
	for _, tc := range []struct {
		name   string
		pg     mem.PageID
		arg, b uint64
		want   []uint32
	}{
		{"inverted range", 3, 4, 1, nil},
		{"seq 0", 3, 0, 0, nil},
		{"range past 2^32", 3, 1<<32 + 1, 1<<32 + 3, nil},
		{"start past 2^32", 3, 1 << 32, math.MaxUint64, nil},
		{"page never written", 6, 1, 4, nil},
		{"end past 2^32", 3, 2, 1<<32 + 3, []uint32{2, 4}},
	} {
		got, err := replySeqs(s.serve(t, tc.pg, tc.arg, tc.b))
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: page %d [%d, %d] served seqs %v (%v), want %v", tc.name, tc.pg, tc.arg, tc.b, got, err, tc.want)
		}
	}
}

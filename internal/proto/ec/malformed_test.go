package ec

import (
	"encoding/binary"
	"testing"
)

// TestGrantDecodersSurviveHostileInput: the three grant formats — plain
// ranges, diff mode's full copy with its log, diff mode's log suffix —
// decoded from every strict prefix past the version word, with a
// trailing byte, and with element counts of 2^62 and 2^30: an error,
// never a panic.
func TestGrantDecodersSurviveHostileInput(t *testing.T) {
	ver := binary.LittleEndian.AppendUint64(nil, 3)
	log := []verDiff{{ver: 2, diff: []byte{0, 1, 7}}, {ver: 3, diff: []byte{4, 2, 8, 9}}}
	ranges := func(b []byte) error { _, _, err := decodeRangeGrant(b); return err }
	diffs := func(b []byte) error { _, err := decodeDiffGrant(b); return err }
	for _, tc := range []struct {
		name   string
		valid  []byte
		decode func([]byte) error
	}{
		{"ranges", append(ver[:8:8], 2, 0, 3, 1, 2, 3, 0x8a, 0x02, 1, 9), ranges},
		{"full copy", appendLog(append(ver[:8:8], grantFull, 3, 1, 2, 3), log), diffs},
		{"diff log", appendLog(append(ver[:8:8], grantDiffs), log), diffs},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Errorf("%s: the valid payload: %v", tc.name, err)
		}
		for i := 0; i < len(tc.valid); i++ {
			if i != 8 && tc.decode(tc.valid[:i]) == nil { // 8 bytes: a version-only grant
				t.Errorf("%s: decoded with only %d of %d bytes", tc.name, i, len(tc.valid))
			}
		}
		if tc.decode(append(tc.valid[:len(tc.valid):len(tc.valid)], 0)) == nil {
			t.Errorf("%s: decoded with a trailing byte", tc.name)
		}
		head := len(tc.valid) - len(appendLog(nil, log)) // where the log's count sits
		if tc.name == "ranges" {
			head = 8
		}
		for _, count := range []uint64{1 << 62, 1 << 30} {
			if tc.decode(binary.AppendUvarint(tc.valid[:head:head], count)) == nil {
				t.Errorf("%s: decoded a list of %d elements in no bytes", tc.name, count)
			}
		}
	}
	if diffs(append(ver[:8:8], 7)) == nil {
		t.Error("unknown grant mode accepted")
	}
}

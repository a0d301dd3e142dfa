package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Diff encoding: a sequence of runs, each
//
//	uvarint offset-delta (gap since end of previous run)
//	uvarint run length  (> 0)
//	length bytes of new data
//
// terminated by the end of the buffer. Runs are strictly ascending and
// non-overlapping, so applying a diff is a single left-to-right pass.
// This is the word-diff representation used by Munin and TreadMarks to
// support multiple concurrent writers of one page: data-race-free
// programs produce diffs with disjoint runs, so diffs from concurrent
// intervals can be applied in any order.

// CreateDiff encodes the byte ranges where cur differs from base
// (the twin). The two slices must have equal length. A nil return
// means the page is unchanged. The diff is encoded into a pooled
// buffer and copied out once at its final size (cap == len), so a
// diff kept in a log costs one allocation and an unchanged page none.
func CreateDiff(base, cur []byte) (diff []byte) {
	buf := diffScratch.Get().(*[]byte)
	if *buf = AppendDiff((*buf)[:0], base, cur); len(*buf) > 0 {
		diff = make([]byte, len(*buf))
		copy(diff, *buf)
	}
	diffScratch.Put(buf)
	return diff
}

var diffScratch = sync.Pool{New: func() any { return new([]byte) }} // CreateDiff's encoding buffers

// AppendDiff is CreateDiff in append form: the encoding is appended
// to out (which may be a recycled buffer) and the extended slice
// returned. An unchanged page appends nothing.
func AppendDiff(out, base, cur []byte) []byte {
	if len(base) != len(cur) {
		panic(fmt.Sprintf("mem: CreateDiff: twin length %d != page length %d", len(base), len(cur)))
	}
	prevEnd := 0
	i := 0
	n := len(cur)
	for i < n {
		// Skip unchanged bytes by 64-byte block (bytes.Equal is
		// vectorised), then by word; the byte loop places run bounds.
		for i+64 <= n && bytes.Equal(base[i:i+64], cur[i:i+64]) {
			i += 64
		}
		for ; i+8 <= n; i += 8 {
			if x := binary.LittleEndian.Uint64(base[i:]) ^ binary.LittleEndian.Uint64(cur[i:]); x != 0 {
				i += bits.TrailingZeros64(x) >> 3
				break
			}
		}
		for i < n && base[i] == cur[i] {
			i++
		}
		if i == n {
			break
		}
		start := i
		for i < n && base[i] != cur[i] {
			i++
		}
		// Runs contain only genuinely changed bytes. Coalescing runs
		// across short unchanged gaps would shrink headers but embed
		// base-valued bytes in the run — and those would overwrite a
		// concurrent writer's changes when diffs from disjoint writers
		// merge, which is exactly the multiple-writer case twins and
		// diffs exist for.
		out = binary.AppendUvarint(out, uint64(start-prevEnd))
		out = binary.AppendUvarint(out, uint64(i-start))
		out = append(out, cur[start:i]...)
		prevEnd = i
	}
	return out
}

// walkRuns is the one pass over a diff's runs: each is handed to visit
// with its offset. size is the extent the runs must stay within. The
// gap is checked as the uint64 it arrives as: converted first, a
// hostile one turns negative and walks the offset back out of the page.
func walkRuns(diff []byte, size int, visit func(off int, run []byte)) error {
	pos := 0
	for len(diff) > 0 {
		gap, n := binary.Uvarint(diff)
		if n <= 0 {
			return fmt.Errorf("mem: diff: bad gap varint at byte %d", pos)
		}
		diff = diff[n:]
		length, n := binary.Uvarint(diff)
		if n <= 0 || length == 0 {
			return fmt.Errorf("mem: diff: bad length varint")
		}
		diff = diff[n:]
		if uint64(len(diff)) < length {
			return fmt.Errorf("mem: diff: truncated run payload: want %d, have %d", length, len(diff))
		}
		if gap > uint64(size) {
			return fmt.Errorf("mem: diff: gap %d exceeds size %d", gap, size)
		}
		start := pos + int(gap)
		end := start + int(length)
		if end > size {
			return fmt.Errorf("mem: diff: run [%d,%d) exceeds size %d", start, end, size)
		}
		visit(start, diff[:length])
		diff = diff[length:]
		pos = end
	}
	return nil
}

// ApplyDiff patches dst in place with a diff produced by CreateDiff.
// It returns an error if the diff is malformed or overruns dst.
func ApplyDiff(dst, diff []byte) error {
	return walkRuns(diff, len(dst), func(off int, run []byte) { copy(dst[off:], run) })
}

// DiffRanges reports the (offset, length) runs encoded in a diff,
// without applying it; a run past byte 2^31 is taken for malformed.
// Useful for tests and tracing.
func DiffRanges(diff []byte) (runs [][2]int, err error) {
	err = walkRuns(diff, math.MaxInt32, func(off int, run []byte) { runs = append(runs, [2]int{off, len(run)}) })
	return runs, err
}

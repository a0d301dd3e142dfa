package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refDiff is the byte-at-a-time encoder AppendDiff must match byte for
// byte: every unchanged byte is looked at alone, every changed one
// extends the current run.
func refDiff(base, cur []byte) []byte {
	var out []byte
	prevEnd := 0
	for i := 0; i < len(cur); {
		if base[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && base[i] != cur[i] {
			i++
		}
		out = binary.AppendUvarint(out, uint64(start-prevEnd))
		out = binary.AppendUvarint(out, uint64(i-start))
		out = append(out, cur[start:i]...)
		prevEnd = i
	}
	return out
}

// checkDiff compares AppendDiff and CreateDiff with refDiff on one page
// pair, and checks the diff rebuilds cur from base.
func checkDiff(t testing.TB, base, cur []byte) {
	t.Helper()
	want := refDiff(base, cur)
	if got := AppendDiff(nil, base, cur); !bytes.Equal(got, want) {
		t.Fatalf("AppendDiff (%d bytes) = %x, want %x", len(base), got, want)
	}
	got := CreateDiff(base, cur)
	if !bytes.Equal(got, want) || cap(got) != len(got) || (got == nil) != (len(want) == 0) {
		t.Fatalf("CreateDiff (%d bytes) = %x (cap %d), want %x", len(base), got, cap(got), want)
	}
	dst := append([]byte(nil), base...)
	if err := ApplyDiff(dst, got); err != nil || !bytes.Equal(dst, cur) {
		t.Fatalf("applying the diff: %v, page %x, want %x", err, dst, cur)
	}
}

// diffEquivSizes are the page sizes the system uses and lengths whose
// last word is partial.
var diffEquivSizes = []int{1, 7, 8, 13, 16, 64, 71, 100, 1024, 4096}

// TestAppendDiffMatchesByteLoop places runs at every offset mod 64,
// across word and 64-byte block boundaries, into the tail, in pairs
// with short and long gaps, and on unchanged and fully changed pages.
func TestAppendDiffMatchesByteLoop(t *testing.T) {
	for _, n := range diffEquivSizes {
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(i*7 + 3)
		}
		checkDiff(t, base, append([]byte(nil), base...))
		all := append([]byte(nil), base...)
		for i := range all {
			all[i] ^= 0xff
		}
		checkDiff(t, base, all)
		flip := func(cur []byte, from, length int) { // the part inside the page
			for i := max(from, 0); i < min(from+length, n); i++ {
				cur[i] ^= 0x5a
			}
		}
		for _, at := range []int{0, 64, n - 64 - 9} {
			for off := 0; off < 64; off++ {
				for _, length := range []int{1, 3, 7, 8, 9, 31, 32, 33, 64, 65} {
					for _, gap := range []int{-1, 1, 7, 8, 63, 64} { // -1: one run only
						cur := append([]byte(nil), base...)
						flip(cur, at+off, length)
						if gap >= 0 {
							flip(cur, at+off+length+gap, length)
						}
						checkDiff(t, base, cur)
					}
				}
			}
		}
	}
}

// TestAppendDiffRandomPages compares the encoders on random page pairs
// with a random number of scattered and clustered changes.
func TestAppendDiffRandomPages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 2000; k++ {
		n := diffEquivSizes[rng.Intn(len(diffEquivSizes))]
		base := make([]byte, n)
		rng.Read(base)
		cur := append([]byte(nil), base...)
		for m := rng.Intn(12); m > 0; m-- {
			at := rng.Intn(n)
			for i := at; i < at+1+rng.Intn(40) && i < n; i++ {
				cur[i] = byte(rng.Int())
			}
		}
		checkDiff(t, base, cur)
	}
}

// FuzzAppendDiff: base is the twin, and the page is base with mask
// XORed over it from off; any pair must encode as refDiff does.
func FuzzAppendDiff(f *testing.F) {
	f.Add([]byte("twin"), []byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{1}, 64), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(56))
	f.Add(make([]byte, 1024), bytes.Repeat([]byte{0xff}, 32), uint16(608))
	f.Add(make([]byte, 200), []byte{1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(190))
	f.Add(bytes.Repeat([]byte{7}, 4096), bytes.Repeat([]byte{3}, 4096), uint16(0))
	f.Fuzz(func(t *testing.T, base, mask []byte, off uint16) {
		cur := append([]byte(nil), base...)
		for i, m := range mask {
			if j := int(off) + i; j < len(cur) {
				cur[j] ^= m
			}
		}
		checkDiff(t, base, cur)
	})
}

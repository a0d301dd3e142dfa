package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCreateDiffEmpty(t *testing.T) {
	base := make([]byte, 128)
	cur := make([]byte, 128)
	if d := CreateDiff(base, cur); d != nil {
		t.Fatalf("diff of identical pages = %v, want nil", d)
	}
}

func TestCreateDiffSingleByte(t *testing.T) {
	base := make([]byte, 64)
	cur := make([]byte, 64)
	cur[17] = 0xAB
	d := CreateDiff(base, cur)
	got := make([]byte, 64)
	if err := ApplyDiff(got, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatalf("apply(diff) = %v, want %v", got, cur)
	}
	runs, err := DiffRanges(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != [2]int{17, 1} {
		t.Fatalf("runs = %v, want [[17 1]]", runs)
	}
}

func TestCreateDiffFirstAndLastByte(t *testing.T) {
	base := make([]byte, 32)
	cur := make([]byte, 32)
	cur[0], cur[31] = 1, 2
	d := CreateDiff(base, cur)
	got := make([]byte, 32)
	if err := ApplyDiff(got, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatalf("apply mismatch: %v vs %v", got, cur)
	}
}

// TestCreateDiffExactRuns: runs contain only changed bytes — never
// unchanged gap bytes, which would clobber concurrent writers when
// disjoint diffs merge.
func TestCreateDiffExactRuns(t *testing.T) {
	base := make([]byte, 64)
	cur := make([]byte, 64)
	cur[10], cur[15] = 1, 2
	d := CreateDiff(base, cur)
	runs, err := DiffRanges(d)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{10, 1}, {15, 1}}
	if len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
}

func TestCreateDiffKeepsLongGaps(t *testing.T) {
	base := make([]byte, 128)
	cur := make([]byte, 128)
	cur[0], cur[100] = 1, 2
	d := CreateDiff(base, cur)
	runs, err := DiffRanges(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want two separate runs", runs)
	}
}

func TestCreateDiffLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched lengths")
		}
	}()
	CreateDiff(make([]byte, 8), make([]byte, 16))
}

func TestApplyDiffMalformed(t *testing.T) {
	dst := make([]byte, 16)
	cases := [][]byte{
		{0xFF},                 // truncated varint
		{0, 0},                 // zero-length run
		{0, 5, 1, 2},           // payload shorter than declared
		{20, 5, 1, 2, 3, 4, 5}, // run beyond page end
		// A gap of 2^63+6: as an int it is negative, and a run "ending"
		// before the page does must not be taken for one inside it.
		{0x86, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 2, 7, 7},
	}
	for i, d := range cases {
		if err := ApplyDiff(dst, d); err == nil {
			t.Errorf("case %d: malformed diff accepted", i)
		}
		// DiffRanges has no page to overrun; everything else it rejects too.
		if _, err := DiffRanges(d); (err == nil) != (i == 3) {
			t.Errorf("case %d: DiffRanges: %v", i, err)
		}
	}
}

// TestDiffRoundTripQuick is the central property: for any base and
// any set of mutations, ApplyDiff(base, CreateDiff(base, cur)) == cur.
func TestDiffRoundTripQuick(t *testing.T) {
	f := func(seed int64, size uint8, nmut uint8) bool {
		n := int(size) + 1
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, n)
		rng.Read(base)
		cur := append([]byte(nil), base...)
		for i := 0; i < int(nmut); i++ {
			cur[rng.Intn(n)] = byte(rng.Int())
		}
		d := CreateDiff(base, cur)
		got := append([]byte(nil), base...)
		if err := ApplyDiff(got, d); err != nil {
			return false
		}
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffDisjointCommutes checks the multiple-writer property:
// diffs from writers that touched disjoint byte ranges apply in any
// order with the same result.
func TestDiffDisjointCommutes(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := (int(size) + 2) * 2
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, n)
		rng.Read(base)
		// Writer A mutates only even indices, writer B only odd.
		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		for i := 0; i < n/2; i++ {
			if rng.Intn(2) == 0 {
				curA[2*rng.Intn(n/2)] = byte(rng.Int())
			}
			if rng.Intn(2) == 0 {
				curB[2*rng.Intn(n/2)+1] = byte(rng.Int())
			}
		}
		dA := CreateDiff(base, curA)
		dB := CreateDiff(base, curB)
		ab := append([]byte(nil), base...)
		ba := append([]byte(nil), base...)
		if err := ApplyDiff(ab, dA); err != nil {
			return false
		}
		if err := ApplyDiff(ab, dB); err != nil {
			return false
		}
		if err := ApplyDiff(ba, dB); err != nil {
			return false
		}
		if err := ApplyDiff(ba, dA); err != nil {
			return false
		}
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffIdempotent checks that re-applying the same diff is a
// no-op, which the ERC engine relies on when a sharer's rescue diff
// races with its own explicit flush.
func TestDiffIdempotent(t *testing.T) {
	f := func(seed int64, size uint8, nmut uint8) bool {
		n := int(size) + 1
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, n)
		rng.Read(base)
		cur := append([]byte(nil), base...)
		for i := 0; i < int(nmut); i++ {
			cur[rng.Intn(n)] = byte(rng.Int())
		}
		d := CreateDiff(base, cur)
		got := append([]byte(nil), base...)
		if err := ApplyDiff(got, d); err != nil {
			return false
		}
		if err := ApplyDiff(got, d); err != nil {
			return false
		}
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffSizeIsProportional(t *testing.T) {
	base := make([]byte, 4096)
	cur := append([]byte(nil), base...)
	for i := 0; i < 8; i++ { // one sparse 8-byte write
		cur[1024+i] = byte(i + 1)
	}
	d := CreateDiff(base, cur)
	if len(d) > 32 {
		t.Fatalf("diff for an 8-byte write is %d bytes; want small", len(d))
	}
}

func BenchmarkCreateDiffSparse(b *testing.B) {
	base := make([]byte, 4096)
	cur := append([]byte(nil), base...)
	for i := 0; i < 64; i++ {
		cur[i*61] = byte(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CreateDiff(base, cur)
	}
}

func BenchmarkApplyDiffSparse(b *testing.B) {
	base := make([]byte, 4096)
	cur := append([]byte(nil), base...)
	for i := 0; i < 64; i++ {
		cur[i*61] = byte(i)
	}
	d := CreateDiff(base, cur)
	dst := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ApplyDiff(dst, d); err != nil {
			b.Fatal(err)
		}
	}
}

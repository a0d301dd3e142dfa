package mem

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// diffFixture builds a 4 KiB page pair with a few scattered dirty
// runs, the shape a red/black sweep leaves behind.
func diffFixture() (base, cur []byte) {
	base = make([]byte, 4096)
	cur = make([]byte, 4096)
	for i := range base {
		base[i] = byte(i)
		cur[i] = byte(i)
	}
	for _, run := range [][2]int{{0, 64}, {512, 32}, {1024, 128}, {4000, 90}} {
		for i := run[0]; i < run[0]+run[1]; i++ {
			cur[i] ^= 0xa5
		}
	}
	return base, cur
}

func BenchmarkAppendDiff(b *testing.B) {
	base, cur := diffFixture()
	out := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = AppendDiff(out[:0], base, cur)
	}
}

func BenchmarkApplyDiff(b *testing.B) {
	base, cur := diffFixture()
	diff := CreateDiff(base, cur)
	dst := append([]byte(nil), base...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ApplyDiff(dst, diff); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiffZeroAllocSteadyState pins the pooled twin-diff paths: both
// creating a diff into a reused buffer and applying one in place are
// allocation-free.
func TestDiffZeroAllocSteadyState(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	base, cur := diffFixture()
	out := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		out = AppendDiff(out[:0], base, cur)
	}); n != 0 {
		t.Fatalf("AppendDiff allocates %.1f objects/op into a reused buffer, want 0", n)
	}
	diff := CreateDiff(base, cur)
	dst := append([]byte(nil), base...)
	if n := testing.AllocsPerRun(200, func() {
		if err := ApplyDiff(dst, diff); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ApplyDiff allocates %.1f objects/op, want 0", n)
	}
}

// oneSlotPage is kv_write_tcp's release: a 1 KiB page, twinned, with
// one 32-byte slot written since.
func oneSlotPage(t testing.TB) *Page {
	tbl, err := NewTable(1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p := tbl.Page(0)
	p.Lock()
	p.SetProt(ReadWrite)
	p.WriteFrom(bytes.Repeat([]byte{1}, 1024), 0)
	p.MakeTwin()
	p.WriteFrom(bytes.Repeat([]byte{2}, 32), 608)
	p.Unlock()
	return p
}

func BenchmarkDiffOneSlot(b *testing.B) {
	p := oneSlotPage(b)
	p.Lock()
	defer p.Unlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		diffSink, _ = p.UnflushedDiff()
	}
}

var diffSink []byte

// TestUnflushedDiffAllocBudget pins the cost of the diff an lrc release
// keeps: one allocation of exactly its length for a one-slot change,
// none for a clean page or one stored back to its twin.
func TestUnflushedDiffAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := oneSlotPage(t)
	p.Lock()
	defer p.Unlock()
	var d []byte
	if n := testing.AllocsPerRun(200, func() { d, _ = p.UnflushedDiff() }); n != 1 {
		t.Fatalf("the diff of one 32-byte slot allocates %.1f times, want 1", n)
	}
	if runs, err := DiffRanges(d); err != nil || len(runs) != 1 || runs[0] != [2]int{608, 32} || cap(d) != len(d) {
		t.Fatalf("diff runs %v (%v), len %d cap %d: want one run [608 32], cap == len", runs, err, len(d), cap(d))
	}
	p.WriteFrom(bytes.Repeat([]byte{1}, 32), 608) // back to the twin's bytes: dirty, unchanged
	if n := testing.AllocsPerRun(200, func() { d, _ = p.UnflushedDiff() }); n != 0 || d != nil {
		t.Fatalf("an unchanged dirty page allocates %.1f times for diff %x, want 0 and nil", n, d)
	}
	p.RefreshTwin()
	if n := testing.AllocsPerRun(200, func() { d, _ = p.UnflushedDiff() }); n != 0 {
		t.Fatalf("a clean page allocates %.1f times, want 0", n)
	}
}

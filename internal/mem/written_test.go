package mem

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// scanWritten is the page-table scan the written list replaced, kept
// as the oracle: every page an interval close must visit.
func scanWritten(t *Table) []PageID {
	var out []PageID
	for i := 0; i < t.NumPages(); i++ {
		p := t.Page(PageID(i))
		p.Lock()
		if p.Dirty() && p.HasTwin() {
			out = append(out, p.ID())
		}
		p.Unlock()
	}
	return out
}

func locked(p *Page, f func()) {
	p.Lock()
	defer p.Unlock()
	f()
}

func wantTake(t *testing.T, tbl *Table, want ...PageID) {
	t.Helper()
	if got := tbl.TakeWritten(); !slices.Equal(got, want) {
		t.Fatalf("TakeWritten = %v, want %v", got, want)
	}
}

// TestWrittenListTransitions walks the list through every way a page
// gets dirty: one entry per clean -> dirty transition, whichever store
// helper made it; ascending; emptied by the take.
func TestWrittenListTransitions(t *testing.T) {
	tbl, _ := NewTable(8*64, 64)
	wantTake(t, tbl)
	word := []byte{1, 2, 3}
	locked(tbl.Page(5), func() { tbl.Page(5).WriteFrom(word, 0); tbl.Page(5).WriteFrom(word, 8) })
	locked(tbl.Page(2), func() { tbl.Page(2).PutUint64(0, 7); tbl.Page(2).PutUint64(8, 7) })
	locked(tbl.Page(7), func() { tbl.Page(7).MakeTwin(); tbl.Page(7).MakeTwin() })
	locked(tbl.Page(0), func() { tbl.Page(0).SetDirty(true); tbl.Page(0).SetDirty(true) })
	locked(tbl.Page(3), func() { tbl.Page(3).SetDirty(false) })
	wantTake(t, tbl, 0, 2, 5, 7)
	wantTake(t, tbl)

	// Still dirty, so further stores are not transitions...
	locked(tbl.Page(5), func() { tbl.Page(5).WriteFrom(word, 16) })
	wantTake(t, tbl)
	// ...until the closer refreshes the twin of the page it visited.
	p := tbl.Page(7)
	locked(p, func() { p.RefreshTwin(); p.PutUint64(0, 1) })
	wantTake(t, tbl, 7)
	// RefreshTwin outside a take (hlrc revalidation) then SetDirty(true):
	// the page is listed once, not twice.
	locked(p, func() { p.RefreshTwin(); p.SetDirty(true); p.RefreshTwin(); p.PutUint64(8, 2) })
	wantTake(t, tbl, 7)
	// DropTwin while listed (erc invalidation), then twinned again.
	locked(p, func() { p.RefreshTwin(); p.PutUint64(0, 3); p.DropTwin(); p.MakeTwin() })
	wantTake(t, tbl, 7)
}

// TestMakeTwinRelistsDirtyPage: page 5 was handed out by a take while
// dirty without a twin, so nothing cleared its dirty flag; the twin it
// gets later must put it back on the list or its diff is never made.
func TestMakeTwinRelistsDirtyPage(t *testing.T) {
	tbl, _ := NewTable(8*64, 64)
	p := tbl.Page(5)
	locked(p, func() { p.PutUint64(0, 1) })
	wantTake(t, tbl, 5)
	locked(p, func() {
		if !p.Dirty() || p.HasTwin() {
			t.Fatalf("dirty=%v twin=%v, want a dirty page without a twin", p.Dirty(), p.HasTwin())
		}
		if !p.MakeTwin() {
			t.Fatal("MakeTwin made no twin")
		}
	})
	wantTake(t, tbl, 5)
}

// TestZeroAllocRefreshTwinInPlace: refreshing an existing twin equals
// a fresh snapshot whatever the frame holds — never materialised,
// written only in part, full — reuses the twin's storage and allocates
// nothing.
func TestZeroAllocRefreshTwinInPlace(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	full := bytes.Repeat([]byte{0xab}, 64)
	for _, tc := range []struct {
		name string
		data []byte
	}{{"nil", nil}, {"short", full[:10]}, {"full", full}} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, _ := NewTable(64, 64)
			p := tbl.Page(0)
			p.Lock()
			defer p.Unlock()
			if tc.data != nil {
				p.WriteFrom(tc.data, 0)
			}
			p.twin = bytes.Repeat([]byte{0xff}, 64) // stale
			twin := p.twin
			if n := testing.AllocsPerRun(100, func() { p.dirty = true; p.RefreshTwin() }); n != 0 {
				t.Errorf("RefreshTwin allocates %.1f objects/op over an existing twin, want 0", n)
			}
			if !bytes.Equal(p.twin, p.Snapshot()) {
				t.Errorf("twin = %x, want the snapshot %x", p.twin, p.Snapshot())
			}
			if &p.twin[0] != &twin[0] || p.Dirty() {
				t.Errorf("twin reallocated or page left dirty (dirty=%v)", p.Dirty())
			}
		})
	}
	// Without a twin there is nothing to reuse.
	tbl, _ := NewTable(64, 64)
	p := tbl.Page(0)
	locked(p, func() {
		p.PutUint64(0, 9)
		p.RefreshTwin()
		if !bytes.Equal(p.twin, p.Snapshot()) {
			t.Errorf("first twin = %x, want %x", p.twin, p.Snapshot())
		}
	})
}

// TestWrittenListIsTheScan runs a seeded program of stores, twins,
// invalidation-style twin drops and interval closes, and holds the
// invariant at every close: the take is exactly the pages the full
// scan finds, plus at most pages that need no visit.
func TestWrittenListIsTheScan(t *testing.T) {
	const pages = 32
	tbl, _ := NewTable(pages*64, 64)
	rng := rand.New(rand.NewSource(22))
	closes, visited := 0, 0
	for step := 0; step < 20000; step++ {
		p := tbl.Page(PageID(rng.Intn(pages)))
		p.Lock()
		switch op := rng.Intn(100); {
		case op < 50:
			p.PutUint64(8*rng.Intn(8), rng.Uint64())
		case op < 65:
			p.WriteFrom([]byte{byte(step)}, rng.Intn(64))
		case op < 80:
			p.MakeTwin()
		case op < 85:
			p.DropTwin()
		case op < 90:
			p.RefreshTwin() // hlrc revalidation...
			if rng.Intn(2) == 0 {
				p.SetDirty(true) // ...of a locally written page
			}
		}
		p.Unlock()
		if rng.Intn(40) != 0 {
			continue
		}
		closes++
		want := scanWritten(tbl)
		got := tbl.TakeWritten()
		if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("step %d: take %v is not strictly ascending", step, got)
		}
		for _, id := range want {
			if !slices.Contains(got, id) {
				t.Fatalf("step %d: page %d is dirty with a twin but not on the list %v", step, id, got)
			}
		}
		for _, id := range got {
			q := tbl.Page(id)
			q.Lock()
			if q.Dirty() && q.HasTwin() {
				visited++
				q.RefreshTwin()
			}
			q.Unlock()
		}
		if left := scanWritten(tbl); len(left) != 0 {
			t.Fatalf("step %d: pages %v still dirty with a twin after the close", step, left)
		}
	}
	if closes < 100 || visited < closes {
		t.Fatalf("program too tame: %d closes, %d page visits", closes, visited)
	}
}

// TestWrittenListConcurrentClose has one goroutine storing and one
// closing intervals on the same table (run under -race). Every store
// must be covered by a close: when the writer is done, one more close
// leaves every twin equal to its frame.
func TestWrittenListConcurrentClose(t *testing.T) {
	const pages = 16
	tbl, _ := NewTable(pages*64, 64)
	closeInterval := func() {
		for _, id := range tbl.TakeWritten() {
			p := tbl.Page(id)
			p.Lock()
			if p.Dirty() && p.HasTwin() {
				p.RefreshTwin()
			}
			p.Unlock()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50000; i++ {
			p := tbl.Page(PageID(rng.Intn(pages)))
			p.Lock()
			p.MakeTwin() // the write fault
			p.PutUint64(8*rng.Intn(8), uint64(i)+1)
			p.Unlock()
		}
	}()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false // and close once more, after the last store
		default:
		}
		closeInterval()
	}
	if left := scanWritten(tbl); len(left) != 0 {
		t.Fatalf("pages %v were written but no close visited them", left)
	}
	for i := 0; i < pages; i++ {
		p := tbl.Page(PageID(i))
		p.Lock()
		if !bytes.Equal(p.twin, p.Snapshot()) {
			t.Errorf("page %d: twin differs from frame after the last close: a store was missed", i)
		}
		p.Unlock()
	}
}

package lrc_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
)

// scanDirty is the full page-table scan that interval close used to
// be, kept here as the oracle for the written list: the diffs a close
// of n's interval must create, as a count and an encoded-byte total.
func scanDirty(n *core.Node) (pages []mem.PageID, diffs, diffBytes int64) {
	tbl := n.Runtime().Table()
	for i := 0; i < tbl.NumPages(); i++ {
		p := tbl.Page(mem.PageID(i))
		p.Lock()
		if p.Dirty() && p.HasTwin() {
			pages = append(pages, p.ID())
			if d := p.DiffAgainstTwin(); len(d) > 0 {
				diffs++
				diffBytes += int64(len(d))
			}
		}
		p.Unlock()
	}
	return pages, diffs, diffBytes
}

// closing runs op, a synchronization operation that closes n's current
// interval, between two scans: the close must have made exactly the
// diffs the scan found, and left no page dirty with a twin — a page
// missing from the written list would fail both.
func closing(t *testing.T, n *core.Node, what string, op func() error) {
	t.Helper()
	st := n.Runtime().Stats()
	_, wantDiffs, wantBytes := scanDirty(n)
	d0, b0 := st.DiffsCreated.Load(), st.DiffBytes.Load()
	if err := op(); err != nil {
		t.Errorf("node %d: %s: %v", n.ID(), what, err)
		return
	}
	if d, b := st.DiffsCreated.Load()-d0, st.DiffBytes.Load()-b0; d != wantDiffs || b != wantBytes {
		t.Errorf("node %d: %s made %d diffs (%d bytes), the scan wants %d (%d bytes)",
			n.ID(), what, d, b, wantDiffs, wantBytes)
	}
	if left, _, _ := scanDirty(n); len(left) != 0 {
		t.Errorf("node %d: %s left pages %v dirty with a twin", n.ID(), what, left)
	}
}

// TestCloseVisitsWhatTheScanFinds drives one seeded data-race-free
// program through every engine that closes intervals. Lock phases run
// on the test goroutine: a node takes lock 4, or lock 1 and maybe lock
// 4 inside it, and writes words of the stripes it holds — by WriteUint64, and by a
// WriteAt across a page boundary when it holds both — then sets an
// event or releases. Pages mix stripes, so a nested acquire regularly
// invalidates a page its acquirer has dirtied (under hlrc: a home
// revalidation of a locally written page). Barrier phases run one
// goroutine a node. Every close is checked against the scan; every
// read against a sequential model; and the totals are the parent
// commit's, where the same program closed intervals by scanning.
func TestCloseVisitsWhatTheScanFinds(t *testing.T) {
	// At 3abdfa6 every engine made the same diffs; only the lazy ones
	// send write notices, one to each of the three other nodes.
	const wantDiffs, wantDiffBytes = 1342, 17110
	for _, proto := range []core.Protocol{core.LRC, core.HLRC, core.ERCInvalidate, core.ERCUpdate} {
		t.Run(proto.String(), func(t *testing.T) {
			lazy := proto == core.LRC || proto == core.HLRC
			var wantNotices int64
			if lazy {
				wantNotices = 3 * wantDiffs
			}
			got, dirtyInvalidated := runSeededProgram(t, proto)
			if got.DiffsCreated != wantDiffs || got.DiffBytes != wantDiffBytes || got.WriteNotices != wantNotices {
				t.Errorf("diffs=%d diff_bytes=%d write_notices=%d, the parent commit made %d/%d/%d",
					got.DiffsCreated, got.DiffBytes, got.WriteNotices, wantDiffs, wantDiffBytes, wantNotices)
			}
			if lazy && dirtyInvalidated == 0 {
				t.Error("no acquire invalidated a locally dirty page: the program lost its hard case")
			}
		})
	}
}

func runSeededProgram(t *testing.T, proto core.Protocol) (total stats.Snapshot, dirtyInvalidated int) {
	const (
		nodes    = 4
		pageSize = 256
		perPage  = pageSize / 8
		stripes  = 4  // word w belongs to lock w%stripes + 1
		lockPgs  = 12 // region written under locks
		ownPgs   = 2  // pages a node, written between barriers
	)
	c, err := core.NewCluster(core.Config{Nodes: nodes, Protocol: proto, PageSize: pageSize, HeapBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.AllocPage((lockPgs + nodes*ownPgs) * pageSize)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(w int) int64 { return base + int64(w)*8 }
	model := make([]uint64, (lockPgs+nodes*ownPgs)*perPage)
	rng := rand.New(rand.NewSource(22))

	check := func(n *core.Node, w int) {
		t.Helper()
		if got, err := n.ReadUint64(addr(w)); err != nil || got != model[w] {
			t.Errorf("node %d reads word %d = %#x (%v), the model has %#x", n.ID(), w, got, err, model[w])
		}
	}
	write := func(n *core.Node, w int) {
		t.Helper()
		model[w] = rng.Uint64() | 1
		if err := n.WriteUint64(addr(w), model[w]); err != nil {
			t.Errorf("node %d writes word %d: %v", n.ID(), w, err)
		}
	}
	// wordOf picks a word of the given stripe in the lock region.
	wordOf := func(stripe int) int { return rng.Intn(lockPgs*perPage/stripes)*stripes + stripe }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	var event int32
	lockPhase := func() {
		n := c.Node(rng.Intn(nodes))
		if rng.Intn(3) == 0 {
			// Lock 4 on its own: a release chain the holders of lock 1
			// learn of only when they take lock 4 inside it.
			must(n.Acquire(4))
			for i := 1 + rng.Intn(3); i > 0; i-- {
				check(n, wordOf(3))
				write(n, wordOf(3))
			}
			closing(t, n, "release", func() error { return n.Release(4) })
			return
		}
		must(n.Acquire(1))
		for i := rng.Intn(4); i > 0; i-- {
			check(n, wordOf(0))
			write(n, wordOf(0))
		}
		if rng.Intn(2) == 0 {
			must(n.Acquire(4))
			// The grant may have invalidated pages this interval wrote.
			tbl := n.Runtime().Table()
			for i := 0; i < tbl.NumPages(); i++ {
				p := tbl.Page(mem.PageID(i))
				p.Lock()
				if p.Dirty() && p.HasTwin() && p.Prot() == mem.Invalid {
					dirtyInvalidated++
				}
				p.Unlock()
			}
			// Last word of a page is stripe 3, the next page's first
			// stripe 0: one WriteAt, two pages, both locks held.
			w := (1+rng.Intn(lockPgs-1))*perPage - 1
			model[w], model[w+1] = rng.Uint64()|1, rng.Uint64()|1
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[:], model[w])
			binary.LittleEndian.PutUint64(buf[8:], model[w+1])
			must(n.WriteAt(addr(w), buf[:]))
			for i := rng.Intn(3); i > 0; i-- {
				check(n, wordOf(3))
				write(n, wordOf(rng.Intn(2)*3))
			}
			closing(t, n, "inner release", func() error { return n.Release(4) })
			write(n, wordOf(0)) // a hit on a page the close left writable
		}
		if rng.Intn(4) == 0 {
			// A set event is a release too; its waiter is an acquirer
			// and must see everything the setter wrote.
			event++
			id := event
			closing(t, n, "event set", func() error { return n.EventSet(id) })
			w := wordOf(0)
			write(n, w)
			closing(t, n, "release", func() error { return n.Release(1) })
			m := c.Node(rng.Intn(nodes))
			must(m.EventWait(id))
			must(m.Acquire(1))
			check(m, w)
			must(m.Release(1))
			return
		}
		closing(t, n, "release", func() error { return n.Release(1) })
	}

	barrierPhase := func(bar int32) {
		// Each node writes its own pages, all meet, each reads the
		// others', all meet again before anyone writes.
		plan := make([][]int, nodes)
		for i := range plan {
			for k := 1 + rng.Intn(5); k > 0; k-- {
				w := (lockPgs+i*ownPgs)*perPage + rng.Intn(ownPgs*perPage)
				plan[i] = append(plan[i], w)
				model[w] = rng.Uint64() | 1
			}
		}
		reads := make([]int, nodes)
		for i := range reads {
			reads[i] = lockPgs*perPage + rng.Intn(nodes*ownPgs*perPage)
		}
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			wg.Add(1)
			go func(n *core.Node, ws []int, r int) {
				defer wg.Done()
				for _, w := range ws {
					if err := n.WriteUint64(addr(w), model[w]); err != nil {
						t.Errorf("node %d writes word %d: %v", n.ID(), w, err)
					}
				}
				closing(t, n, "barrier", func() error { return n.Barrier(bar) })
				check(n, r)
				closing(t, n, "second barrier", func() error { return n.Barrier(bar) })
			}(c.Node(i), plan[i], reads[i])
		}
		wg.Wait()
	}

	for step := 0; step < 400 && !t.Failed(); step++ {
		if rng.Intn(10) == 0 {
			barrierPhase(1)
		} else {
			lockPhase()
		}
	}
	barrierPhase(1)
	buf := make([]byte, len(model)*8)
	for i := 0; i < nodes; i++ {
		if err := c.Node(i).ReadAt(base, buf); err != nil {
			t.Fatal(err)
		}
		for w, want := range model {
			if got := binary.LittleEndian.Uint64(buf[w*8:]); got != want {
				t.Fatalf("node %d ends with word %d = %#x, the model has %#x", i, w, got, want)
			}
		}
	}
	return c.TotalStats(), dirtyInvalidated
}

// TestWriterRacesIntervalClose (for -race): on one node, a goroutine
// stores while another closes intervals with lock releases. A store
// lands in the interval being closed or in the next one, never in
// neither: after a last release, a second node that acquires the lock
// reads every word's final value.
func TestWriterRacesIntervalClose(t *testing.T) {
	for _, proto := range []core.Protocol{core.LRC, core.HLRC, core.ERCInvalidate, core.ERCUpdate} {
		t.Run(proto.String(), func(t *testing.T) {
			const words = 6 * 32
			c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: proto, PageSize: 256, HeapBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			base := c.MustAlloc(words * 8)
			n0, n1 := c.Node(0), c.Node(1)
			final := make([]uint64, words)
			done := make(chan struct{})
			go func() {
				defer close(done)
				rng := rand.New(rand.NewSource(1))
				for i := 1; i <= 20000; i++ {
					w := rng.Intn(words)
					final[w] = uint64(i)
					if err := n0.WriteUint64(base+int64(w)*8, uint64(i)); err != nil {
						t.Errorf("write %d: %v", i, err)
						return
					}
				}
			}()
			release := func() {
				if err := n0.Acquire(2); err != nil {
					t.Fatal(err)
				}
				if err := n0.Release(2); err != nil {
					t.Fatal(err)
				}
			}
			for writing := true; writing; {
				select {
				case <-done:
					writing = false // and release once more, after the last store
				default:
				}
				release()
			}
			if err := n1.Acquire(2); err != nil {
				t.Fatal(err)
			}
			for w, want := range final {
				if got, err := n1.ReadUint64(base + int64(w)*8); err != nil || got != want {
					t.Fatalf("word %d = %d (%v) at the acquirer, the writer's last store was %d", w, got, err, want)
				}
			}
			if err := n1.Release(2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// releaseOneDirtyPage is one kv-style write op: take a lock this node
// manages, dirty one page, release.
func releaseOneDirtyPage(n *core.Node, addr int64, v uint64) error {
	if err := n.Acquire(0); err != nil {
		return err
	}
	if err := n.WriteUint64(addr, v); err != nil {
		return err
	}
	return n.Release(0)
}

func oneDirtyPageCluster(tb testing.TB, heapBytes int64) (*core.Node, int64) {
	tb.Helper()
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.LRC, HeapBytes: heapBytes})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	n, addr := c.Node(0), c.MustAlloc(8)
	if err := releaseOneDirtyPage(n, addr, 1); err != nil { // the write fault and the twin
		tb.Fatal(err)
	}
	return n, addr
}

// BenchmarkReleaseOneDirtyPage: a release costs what it wrote, not
// what the heap holds — the two heap sizes differ 64x in pages and
// should not differ in ns/op (at the parent commit they differed 64x).
func BenchmarkReleaseOneDirtyPage(b *testing.B) {
	for _, heap := range []int64{1 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("heap=%dMiB", heap>>20), func(b *testing.B) {
			n, addr := oneDirtyPageCluster(b, heap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := releaseOneDirtyPage(n, addr, uint64(i)+2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReleaseOneDirtyPageAllocBudget pins what the op allocates: an
// uncontended self-managed lock pair (nine, see dsync) plus the closed
// interval — its record, clock copy and page list, the diff, the
// written list, and the acquire's clock (the empty grant it builds for
// itself is shared). The twin is refreshed in place. Raise the bound
// only with a reason.
func TestReleaseOneDirtyPageAllocBudget(t *testing.T) {
	const budget = 21
	n, addr := oneDirtyPageCluster(t, 1<<20)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := uint64(1)
	got := testing.AllocsPerRun(500, func() {
		v++
		if err := releaseOneDirtyPage(n, addr, v); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Fatalf("a release of one dirty page allocates %.1f times, budget %d", got, budget)
	}
}

// TestReleaseCostIgnoresHeapSize is the benchmark's claim as a gate
// with slack: 64x the pages must not cost 8x the time (it cost 64x
// when the close scanned the page table). Best of three short runs a
// side, so a stall in one does not decide it.
func TestReleaseCostIgnoresHeapSize(t *testing.T) {
	best := func(heap int64) time.Duration {
		n, addr := oneDirtyPageCluster(t, heap)
		fastest := time.Duration(math.MaxInt64)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				if err := releaseOneDirtyPage(n, addr, uint64(trial*2000+i)+2); err != nil {
					t.Fatal(err)
				}
			}
			fastest = min(fastest, time.Since(start))
		}
		return fastest
	}
	small, large := best(1<<20), best(64<<20)
	t.Logf("2000 ops: %v at 1 MiB, %v at 64 MiB", small, large)
	if large > 8*small {
		t.Fatalf("2000 releases take %v on a 64 MiB heap, %v on a 1 MiB one: the close scales with the heap", large, small)
	}
}

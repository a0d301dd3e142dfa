package erc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

func newCluster(t *testing.T, proto core.Protocol, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Nodes:     nodes,
		Protocol:  proto,
		PageSize:  256,
		HeapBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestWritesAreLocalUntilRelease: after the first write fault, a
// writer's subsequent writes generate no network traffic; the flush
// happens at release.
func TestWritesAreLocalUntilRelease(t *testing.T) {
	for _, proto := range []core.Protocol{core.ERCInvalidate, core.ERCUpdate} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := newCluster(t, proto, 3)
			addr := c.MustAlloc(64)
			n1 := c.Node(1)
			if err := n1.Acquire(1); err != nil {
				t.Fatal(err)
			}
			if err := n1.WriteUint64(addr, 1); err != nil { // fault + fetch
				t.Fatal(err)
			}
			before := c.TotalStats().MsgsSent
			for i := int64(1); i < 8; i++ {
				if err := n1.WriteUint64(addr+8*i, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.TotalStats().MsgsSent; got != before {
				t.Fatalf("local writes sent %d messages", got-before)
			}
			if err := n1.Release(1); err != nil {
				t.Fatal(err)
			}
			if got := c.TotalStats().MsgsSent; got == before {
				t.Fatal("release flushed nothing")
			}
		})
	}
}

// TestReleaseMakesWritesVisible: release pushes the diff to the home;
// a subsequent acquire+read elsewhere sees it.
func TestReleaseMakesWritesVisible(t *testing.T) {
	for _, proto := range []core.Protocol{core.ERCInvalidate, core.ERCUpdate} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := newCluster(t, proto, 3)
			addr := c.MustAlloc(8)
			n1, n2 := c.Node(1), c.Node(2)
			if err := n1.Acquire(1); err != nil {
				t.Fatal(err)
			}
			if err := n1.WriteUint64(addr, 77); err != nil {
				t.Fatal(err)
			}
			if err := n1.Release(1); err != nil {
				t.Fatal(err)
			}
			if err := n2.Acquire(1); err != nil {
				t.Fatal(err)
			}
			got, err := n2.ReadUint64(addr)
			if err != nil {
				t.Fatal(err)
			}
			if got != 77 {
				t.Fatalf("read %d after acquire", got)
			}
			if err := n2.Release(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentDisjointWriters: two nodes write disjoint halves of
// one page in the same barrier phase; twins/diffs must merge both.
func TestConcurrentDisjointWriters(t *testing.T) {
	for _, proto := range []core.Protocol{core.ERCInvalidate, core.ERCUpdate} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := newCluster(t, proto, 2)
			addr := c.MustAlloc(128) // one page
			err := c.Run(func(n *core.Node) error {
				base := addr + int64(n.ID())*64
				for i := int64(0); i < 8; i++ {
					if err := n.WriteUint64(base+8*i, uint64(n.ID()*100)+uint64(i)); err != nil {
						return err
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				// Each node checks the other's half.
				other := addr + int64(1-n.ID())*64
				for i := int64(0); i < 8; i++ {
					v, err := n.ReadUint64(other + 8*i)
					if err != nil {
						return err
					}
					want := uint64((1-n.ID())*100) + uint64(i)
					if v != want {
						t.Errorf("node %d saw %d, want %d", n.ID(), v, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRescueInvalidatesFlusher: when writer B's unflushed changes are
// rescued into the home during writer A's flush, A's copy (missing
// B's bytes) must not stay valid. The schedule is forced with
// host-level channels, which a test may use freely.
func TestRescueInvalidatesFlusher(t *testing.T) {
	c := newCluster(t, core.ERCInvalidate, 3)
	addr := c.MustAlloc(16) // one page; page home is node (addr/256)%3 = node 0
	aWrote := make(chan struct{})
	bFlushed := make(chan struct{})
	err := c.Run(func(n *core.Node) error {
		switch n.ID() {
		case 1: // writer A: writes, waits for B's flush, then reads both
			if err := n.Acquire(1); err != nil {
				return err
			}
			if err := n.WriteUint64(addr, 111); err != nil {
				return err
			}
			close(aWrote)
			<-bFlushed
			// A releases: its diff flushes; B's writes were already
			// rescued into the home by now or will merge later —
			// either way the final state must contain both.
			if err := n.Release(1); err != nil {
				return err
			}
		case 2: // writer B: waits for A's write, writes other half, flushes
			<-aWrote
			if err := n.Acquire(2); err != nil {
				return err
			}
			if err := n.WriteUint64(addr+8, 222); err != nil {
				return err
			}
			if err := n.Release(2); err != nil { // flush: rescues A's dirty page
				return err
			}
			close(bFlushed)
		}
		return n.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a, err := c.Node(i).ReadUint64(addr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Node(i).ReadUint64(addr + 8)
		if err != nil {
			t.Fatal(err)
		}
		if a != 111 || b != 222 {
			t.Fatalf("node %d sees (%d,%d), want (111,222)", i, a, b)
		}
	}
}

// TestUpdateFlavorKeepsCopiesFresh: with update propagation a sharer
// never refaults — its copy is patched in place.
func TestUpdateFlavorKeepsCopiesFresh(t *testing.T) {
	c := newCluster(t, core.ERCUpdate, 2)
	addr := c.MustAlloc(8)
	n0, n1 := c.Node(0), c.Node(1)
	// n1 caches the page.
	if _, err := n1.ReadUint64(addr); err != nil {
		t.Fatal(err)
	}
	faultsBefore := c.TotalStats().Faults()
	// n0 writes and releases; the update patches n1's copy.
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr, 5); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err := n1.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("n1 read %d", got)
	}
	// n0's write faulted once (twin); n1 must not have faulted again.
	extra := c.TotalStats().Faults() - faultsBefore
	if extra > 1 {
		t.Fatalf("update flavor caused %d faults; sharer should be patched in place", extra)
	}
	if up := c.TotalStats().UpdatesApplied; up == 0 {
		t.Fatal("no updates were applied")
	}
}

// TestInvalFlavorInvalidatesSharers: with invalidate propagation a
// sharer's copy dies at the writer's release and refaults on access.
func TestInvalFlavorInvalidatesSharers(t *testing.T) {
	c := newCluster(t, core.ERCInvalidate, 2)
	addr := c.MustAlloc(8)
	n0, n1 := c.Node(0), c.Node(1)
	if _, err := n1.ReadUint64(addr); err != nil {
		t.Fatal(err)
	}
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr, 5); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	if inv := c.TotalStats().Invalidations; inv == 0 {
		t.Fatal("release invalidated nobody")
	}
	faultsBefore := c.Node(1).Runtime().Stats().ReadFaults.Load()
	got, err := n1.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("n1 read %d", got)
	}
	if c.Node(1).Runtime().Stats().ReadFaults.Load() == faultsBefore {
		t.Fatal("sharer read stale copy without refaulting")
	}
}

// dirtyTwinned is the full page-table scan flushAll used to be, kept
// as the oracle for the written list: the pages a flush must visit.
func dirtyTwinned(n *core.Node) []mem.PageID {
	var out []mem.PageID
	tbl := n.Runtime().Table()
	for i := 0; i < tbl.NumPages(); i++ {
		p := tbl.Page(mem.PageID(i))
		p.Lock()
		if p.Dirty() && p.HasTwin() {
			out = append(out, p.ID())
		}
		p.Unlock()
	}
	return out
}

// TestFlushFindsRewrittenPages: flushAll visits the written list, not
// the page table, so a page must get back on the list every way it
// gets dirty again: by a hit on a page the last flush left writable,
// and by the twin a write fault makes after an invalidation dropped
// the old one while the page was still listed (once, not twice).
func TestFlushFindsRewrittenPages(t *testing.T) {
	for _, proto := range []core.Protocol{core.ERCInvalidate, core.ERCUpdate} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newCluster(t, proto, 3)
			addr := c.MustAlloc(16) // one page, homed at node 0
			n1, n2 := c.Node(1), c.Node(2)
			st := n1.Runtime().Stats()
			locked := func(n *core.Node, f func()) {
				t.Helper()
				if err := n.Acquire(1); err != nil {
					t.Fatal(err)
				}
				f()
				want := len(dirtyTwinned(n))
				before := n.Runtime().Stats().DiffsCreated.Load()
				if err := n.Release(1); err != nil {
					t.Fatal(err)
				}
				if got := n.Runtime().Stats().DiffsCreated.Load() - before; got != int64(want) {
					t.Fatalf("node %d: release flushed %d pages, the scan found %d", n.ID(), got, want)
				}
				if left := dirtyTwinned(n); len(left) != 0 {
					t.Fatalf("node %d: release left pages %v dirty with a twin", n.ID(), left)
				}
			}
			write := func(n *core.Node, a int64, v uint64) {
				t.Helper()
				if err := n.WriteUint64(a, v); err != nil {
					t.Fatal(err)
				}
			}
			locked(n1, func() { write(n1, addr, 1) }) // fault, twin, flush
			faults := st.WriteFaults.Load()
			locked(n1, func() { write(n1, addr, 2) }) // hit
			if st.WriteFaults.Load() != faults {
				t.Fatal("second write faulted: the page did not stay writable")
			}
			// n1 dirties the page outside any lock; n2's flush of the
			// other word reaches it: dropped twin (invalidate) or patched
			// twin (update), the page listed all along.
			write(n1, addr, 3)
			locked(n2, func() { write(n2, addr+8, 4) })
			locked(n1, func() { write(n1, addr, 5) })
			locked(n2, func() {
				for i, want := range []uint64{5, 4} {
					if got, err := n2.ReadUint64(addr + int64(i)*8); err != nil || got != want {
						t.Fatalf("word %d = %d (%v), want %d", i, got, err, want)
					}
				}
			})
		})
	}
}

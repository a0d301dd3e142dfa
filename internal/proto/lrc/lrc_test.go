package lrc_test

import (
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dsync"
	"repro/internal/proto/lrc"
)

func newCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Nodes:     nodes,
		Protocol:  core.LRC,
		PageSize:  256,
		HeapBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestNoticesTravelWithLock: a release-acquire chain carries write
// notices; the acquirer invalidates and lazily fetches the diff.
func TestNoticesTravelWithLock(t *testing.T) {
	c := newCluster(t, 3)
	addr := c.MustAlloc(8)
	n1, n2 := c.Node(1), c.Node(2)
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteUint64(addr, 9); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := n2.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(2).Runtime().Stats().WriteNotices.Load(); got == 0 {
		t.Fatal("acquire carried no write notices")
	}
	got, err := n2.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("n2 read %d", got)
	}
	if df := c.Node(2).Runtime().Stats().DiffFetches.Load(); df == 0 {
		t.Fatal("read did not fetch a diff")
	}
	if err := n2.Release(1); err != nil {
		t.Fatal(err)
	}
}

// TestLaziness: a node outside the synchronization chain receives no
// write notices and no data.
func TestLaziness(t *testing.T) {
	c := newCluster(t, 4)
	addr := c.MustAlloc(8)
	n1, n2 := c.Node(1), c.Node(2)
	for round := 0; round < 4; round++ {
		if err := n1.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := n1.WriteUint64(addr, uint64(round)); err != nil {
			t.Fatal(err)
		}
		if err := n1.Release(1); err != nil {
			t.Fatal(err)
		}
		if err := n2.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.ReadUint64(addr); err != nil {
			t.Fatal(err)
		}
		if err := n2.Release(1); err != nil {
			t.Fatal(err)
		}
	}
	// Node 3 never synchronized: it must have learned nothing.
	st := c.Node(3).Runtime().Stats()
	if st.WriteNotices.Load() != 0 || st.UpdatesApplied.Load() != 0 {
		t.Fatalf("bystander saw %d notices, %d updates", st.WriteNotices.Load(), st.UpdatesApplied.Load())
	}
}

// TestCausalChain: versions must flow transitively: A writes under
// L1, B acquires L1 then writes under L2, C acquires L2 and must see
// BOTH writes (B's grant to C carries A's interval too).
func TestCausalChain(t *testing.T) {
	c := newCluster(t, 3)
	a := c.MustAlloc(8)
	b := c.MustAlloc(8)
	nA, nB, nC := c.Node(0), c.Node(1), c.Node(2)
	if err := nA.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := nA.WriteUint64(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := nA.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := nB.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := nB.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := nB.Acquire(2); err != nil {
		t.Fatal(err)
	}
	if err := nB.WriteUint64(b, 2); err != nil {
		t.Fatal(err)
	}
	if err := nB.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := nC.Acquire(2); err != nil {
		t.Fatal(err)
	}
	va, err := nC.ReadUint64(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := nC.ReadUint64(b)
	if err != nil {
		t.Fatal(err)
	}
	if va != 1 || vb != 2 {
		t.Fatalf("C sees a=%d b=%d, want 1 2 (causality violated)", va, vb)
	}
	if err := nC.Release(2); err != nil {
		t.Fatal(err)
	}
}

// TestSameNodeIntervalOrder: two ordered intervals of one writer to
// the same page must apply in order at the reader — the later value
// wins.
func TestSameNodeIntervalOrder(t *testing.T) {
	c := newCluster(t, 2)
	addr := c.MustAlloc(8)
	n0, n1 := c.Node(0), c.Node(1)
	for _, v := range []uint64{10, 20, 30} {
		if err := n0.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := n0.WriteUint64(addr, v); err != nil {
			t.Fatal(err)
		}
		if err := n0.Release(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err := n1.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("read %d, want last value 30", got)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierDistributesEverything: after a barrier every node sees
// every pre-barrier write without locks.
func TestBarrierDistributesEverything(t *testing.T) {
	const n = 5
	c := newCluster(t, n)
	addr := c.MustAlloc(8 * n)
	err := c.Run(func(nd *core.Node) error {
		if err := nd.WriteUint64(addr+int64(nd.ID())*8, uint64(100+nd.ID())); err != nil {
			return err
		}
		if err := nd.Barrier(0); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, err := nd.ReadUint64(addr + int64(i)*8)
			if err != nil {
				return err
			}
			if v != uint64(100+i) {
				t.Errorf("node %d sees slot %d = %d", nd.ID(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFalseSharingMerge: concurrent writers of one page, then a
// barrier; diffs from concurrent intervals merge bidirectionally.
func TestFalseSharingMerge(t *testing.T) {
	c := newCluster(t, 4)
	addr := c.MustAlloc(8 * 4) // four words, one page
	err := c.Run(func(nd *core.Node) error {
		if err := nd.WriteUint64(addr+int64(nd.ID())*8, uint64(nd.ID()+1)); err != nil {
			return err
		}
		if err := nd.Barrier(0); err != nil {
			return err
		}
		sum := uint64(0)
		for i := 0; i < 4; i++ {
			v, err := nd.ReadUint64(addr + int64(i)*8)
			if err != nil {
				return err
			}
			sum += v
		}
		if sum != 10 {
			t.Errorf("node %d sum = %d, want 10", nd.ID(), sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriterKeepsOwnWrites: invalidation by a notice must not destroy
// the local node's own uncommitted writes (twin preserved).
func TestWriterKeepsOwnWrites(t *testing.T) {
	c := newCluster(t, 2)
	addr := c.MustAlloc(16) // same page, two words
	n0, n1 := c.Node(0), c.Node(1)
	// n1 writes word 1 under lock and releases.
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteUint64(addr+8, 22); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	// n0 writes word 0 (its own interval, not yet released), then
	// acquires the lock — the notice invalidates the page while n0 is
	// dirty on it.
	if err := n0.WriteUint64(addr, 11); err != nil {
		t.Fatal(err)
	}
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	v0, err := n0.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := n0.ReadUint64(addr + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 11 || v1 != 22 {
		t.Fatalf("n0 sees (%d,%d), want (11,22)", v0, v1)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierGCBoundsDiffCache: with barrier GC, the diff cache must
// stay bounded across many write-barrier rounds; without it, it grows
// linearly. Correctness must hold either way.
func TestBarrierGCBoundsDiffCache(t *testing.T) {
	for _, gc := range []bool{false, true} {
		gc := gc
		t.Run(map[bool]string{false: "off", true: "on"}[gc], func(t *testing.T) {
			c, err := core.NewCluster(core.Config{
				Nodes:        3,
				Protocol:     core.LRC,
				PageSize:     256,
				HeapBytes:    1 << 16,
				LRCBarrierGC: gc,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			addr := c.MustAlloc(8 * 3)
			const rounds = 30
			err = c.Run(func(n *core.Node) error {
				for r := 0; r < rounds; r++ {
					if err := n.WriteUint64(addr+int64(n.ID())*8, uint64(r+1)); err != nil {
						return err
					}
					if err := n.Barrier(0); err != nil {
						return err
					}
					// Every node checks every slot each round.
					for i := 0; i < 3; i++ {
						v, err := n.ReadUint64(addr + int64(i)*8)
						if err != nil {
							return err
						}
						if v != uint64(r+1) {
							return fmt.Errorf("round %d: slot %d = %d", r, i, v)
						}
					}
					if err := n.Barrier(0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, ok := c.Node(0).Runtime().Engine().(*lrc.Engine)
			if !ok {
				t.Fatal("engine is not *lrc.Engine")
			}
			size := eng.DiffCacheSize()
			if gc && size > 6 {
				t.Fatalf("GC on: diff cache holds %d diffs after %d rounds; want bounded", size, rounds)
			}
			if !gc && size < rounds-2 {
				t.Fatalf("GC off: diff cache holds %d diffs; expected ~%d (sanity check of the test itself)", size, rounds)
			}
		})
	}
}

// ---------------- HLRC (home-based) ----------------

func newHomeCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Nodes:     nodes,
		Protocol:  core.HLRC,
		PageSize:  256,
		HeapBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestHLRCFlushesAtRelease: after a release, the page's home holds
// the data; the acquirer revalidates with a single page fetch.
func TestHLRCFlushesAtRelease(t *testing.T) {
	c := newHomeCluster(t, 3)
	addr := c.MustAlloc(8) // page 0, homed at node 0
	n1, n2 := c.Node(1), c.Node(2)
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.WriteUint64(addr, 55); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	// The home (node 0) must already have the value, without any
	// acquire: its copy is the flush target and stays valid.
	got, err := c.Node(0).ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("home reads %d before any acquire", got)
	}
	if err := n2.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err = n2.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("acquirer reads %d", got)
	}
	if err := n2.Release(1); err != nil {
		t.Fatal(err)
	}
	// Revalidation was one whole-page fetch, not per-writer diffs.
	if pt := c.TotalStats().PageTransfers; pt == 0 {
		t.Fatal("no page fetch recorded")
	}
}

// TestHLRCRetainsNoDiffs: home-based mode never grows the diff cache.
func TestHLRCRetainsNoDiffs(t *testing.T) {
	c := newHomeCluster(t, 3)
	addr := c.MustAlloc(8 * 3)
	err := c.Run(func(n *core.Node) error {
		for r := 0; r < 10; r++ {
			if err := n.WriteUint64(addr+int64(n.ID())*8, uint64(r)); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		eng := c.Node(i).Runtime().Engine().(*lrc.Engine)
		if sz := eng.DiffCacheSize(); sz != 0 {
			t.Fatalf("node %d retains %d diffs under HLRC", i, sz)
		}
	}
}

// TestHLRCLocalWritesSurviveRevalidation: a node with unflushed
// writes on a page that gets invalidated must keep them through the
// home fetch (false sharing case).
func TestHLRCLocalWritesSurviveRevalidation(t *testing.T) {
	c := newHomeCluster(t, 2)
	addr := c.MustAlloc(16) // one page (page 0, homed at node 0), two words
	n0, n1 := c.Node(0), c.Node(1)
	// The home node writes word 1 under a lock and releases.
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr+8, 22); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	// The non-home node writes word 0 without syncing (dirty, twin),
	// then acquires: the notice invalidates its dirty page and the
	// home fetch must not clobber the unflushed write.
	other := n1
	if err := other.WriteUint64(addr, 11); err != nil {
		t.Fatal(err)
	}
	if err := other.Acquire(1); err != nil {
		t.Fatal(err)
	}
	v0, err := other.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := other.ReadUint64(addr + 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Release(1); err != nil {
		t.Fatal(err)
	}
	if v0 != 11 || v1 != 22 {
		t.Fatalf("got (%d,%d), want (11,22)", v0, v1)
	}
}

// TestBarrierPushReplacesFetch: once the writer has learned a
// reader's interest (from its first fetch), subsequent barrier rounds
// deliver the diff piggybacked on the barrier itself — the reader
// revalidates from the push cache with no further fetch round trips.
func TestBarrierPushReplacesFetch(t *testing.T) {
	c, err := core.NewCluster(core.Config{
		Nodes:     2,
		Protocol:  core.LRC,
		PageSize:  256,
		HeapBytes: 1 << 16,
		Batch:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addr := c.MustAlloc(8)
	const rounds = 5
	err = c.Run(func(nd *core.Node) error {
		for r := 0; r < rounds; r++ {
			if nd.ID() == 0 {
				if err := nd.WriteUint64(addr, uint64(r+1)); err != nil {
					return err
				}
			}
			if err := nd.Barrier(0); err != nil {
				return err
			}
			if nd.ID() == 1 {
				v, err := nd.ReadUint64(addr)
				if err != nil {
					return err
				}
				if v != uint64(r+1) {
					t.Errorf("round %d: read %d", r, v)
				}
			}
			if err := nd.Barrier(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.TotalStats()
	if st.DiffPushes == 0 {
		t.Fatal("no diffs pushed across barriers")
	}
	if st.DiffFetches != 1 {
		t.Errorf("DiffFetches = %d, want 1 (only the warm-up read should fetch)", st.DiffFetches)
	}
}

// TestTokenRegrantCarriesNoNotices: once a node holds a lock's token,
// re-acquiring it installs no write notice — the grant it builds for
// itself names no interval — while the grant that brought the token
// carried the previous holder's.
func TestTokenRegrantCarriesNoNotices(t *testing.T) {
	for _, proto := range []core.Protocol{core.LRC, core.HLRC} {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: proto, PageSize: 256, HeapBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			addr := c.MustAlloc(8)
			n1 := c.Node(1)
			st := n1.Runtime().Stats()
			writeLocked := func(n *core.Node, v uint64) {
				t.Helper()
				if err := n.Acquire(0); err != nil {
					t.Fatal(err)
				}
				if err := n.WriteUint64(addr, v); err != nil {
					t.Fatal(err)
				}
				if err := n.Release(0); err != nil {
					t.Fatal(err)
				}
			}
			writeLocked(c.Node(2), 5)
			writeLocked(n1, 6) // the token moves: node 2's notice comes with it
			notices, local := st.WriteNotices.Load(), st.LockLocalGrants.Load()
			if notices == 0 {
				t.Fatal("the hand-off carried no write notice")
			}
			for v := uint64(7); v < 17; v++ {
				writeLocked(n1, v)
			}
			if got := st.LockLocalGrants.Load() - local; got != 10 {
				t.Fatalf("%d of 10 re-acquires were local", got)
			}
			if got := st.WriteNotices.Load(); got != notices {
				t.Fatalf("local re-grants installed %d write notices", got-notices)
			}
			eng := n1.Runtime().Engine().(*lrc.Engine)
			if p := eng.GrantPayload(0, n1.Runtime().ID(), dsync.Exclusive, eng.AcquirePayload(0)); hex.EncodeToString(p) != "00" {
				t.Fatalf("self-built grant = %x, want the empty interval list", p)
			}
		})
	}
}

// TestSelfGrantRacesRemoteGrant: on node 1, one goroutine re-acquires
// lock 0 over and over, each grant built locally, while another takes
// lock 1, whose token comes from node 2 with node 2's write notices.
// Node 1 installs each of node 2's intervals exactly once and reads
// its values, and its own writes under lock 0 stay.
func TestSelfGrantRacesRemoteGrant(t *testing.T) {
	for _, proto := range []core.Protocol{core.LRC, core.HLRC} {
		t.Run(proto.String(), func(t *testing.T) {
			const rounds = 200
			c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: proto, PageSize: 256, HeapBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			local, remote := c.MustAlloc(256), c.MustAlloc(256) // one page each
			n1, n2 := c.Node(1), c.Node(2)
			locked := func(n *core.Node, lock int32, op func() error) error {
				if err := n.Acquire(lock); err != nil {
					return err
				}
				if err := op(); err != nil {
					return err
				}
				return n.Release(lock)
			}
			started, done, last := make(chan struct{}), make(chan struct{}), make(chan uint64)
			go func() {
				v := uint64(0)
				defer func() { last <- v }()
				for {
					if err := locked(n1, 0, func() error { return n1.WriteUint64(local, v+1) }); err != nil {
						t.Error(err)
						if v == 0 {
							close(started)
						}
						return
					}
					if v++; v == 1 {
						close(started) // lock 0's token is here: the rest are re-grants
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			<-started
			for r := uint64(1); r <= rounds && err == nil; r++ {
				if err = locked(n2, 1, func() error { return n2.WriteUint64(remote, r) }); err == nil {
					err = locked(n1, 1, func() error {
						if v, err := n1.ReadUint64(remote); err != nil || v != r {
							return fmt.Errorf("round %d: node 1 read %d (%v)", r, v, err)
						}
						return nil
					})
				}
			}
			close(done)
			want := <-last
			if err != nil {
				t.Fatal(err)
			}
			if got := n1.Runtime().Stats().WriteNotices.Load(); got != rounds {
				t.Fatalf("node 1 installed %d write notices, node 2 closed %d intervals", got, rounds)
			}
			if err := locked(n1, 0, func() error {
				if v, err := n1.ReadUint64(local); err != nil || v != want {
					return fmt.Errorf("node 1 reads %d (%v) under lock 0, its last write was %d", v, err, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

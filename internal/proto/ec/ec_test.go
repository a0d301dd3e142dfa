package ec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsync"
	"repro/internal/proto/ec"
)

func newCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Nodes:     nodes,
		Protocol:  core.EC,
		PageSize:  256,
		HeapBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestBoundDataTravelsWithLock: the grant ships the bound range.
func TestBoundDataTravelsWithLock(t *testing.T) {
	c := newCluster(t, 3)
	addr := c.MustAlloc(16)
	c.Bind(1, addr, 16)
	n0, n1 := c.Node(0), c.Node(1)
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr, 42); err != nil {
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
	if got != 42 {
		t.Fatalf("bound data = %d", got)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	if pb := c.TotalStats().GrantPayloadBytes; pb == 0 {
		t.Fatal("grant carried no payload")
	}
	// EC never page-faults.
	if f := c.TotalStats().Faults(); f != 0 {
		t.Fatalf("EC produced %d page faults", f)
	}
}

// TestVersionSkip: re-acquiring a lock whose data you already hold at
// the current version ships no data.
func TestVersionSkip(t *testing.T) {
	c := newCluster(t, 2)
	addr := c.MustAlloc(64)
	c.Bind(1, addr, 64)
	n0, n1 := c.Node(0), c.Node(1)
	// n0 writes, n1 fetches once.
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	before := c.TotalStats().GrantPayloadBytes
	// n1 re-acquires: nobody wrote since its last hold (n1's own
	// exclusive release bumped the version, but n1 produced that
	// version itself), so the grant must be data-free.
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	delta := c.TotalStats().GrantPayloadBytes - before
	if delta > 16 { // version word only, no range data
		t.Fatalf("re-acquire shipped %d payload bytes", delta)
	}
}

// TestSharedModeReaders: multiple shared-mode holders all receive
// current data.
func TestSharedModeReaders(t *testing.T) {
	c := newCluster(t, 4)
	addr := c.MustAlloc(8)
	c.Bind(1, addr, 8)
	n0 := c.Node(0)
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(addr, 314); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *core.Node) error {
		if n.ID() == 0 {
			return nil
		}
		if err := n.AcquireShared(1); err != nil {
			return err
		}
		v, err := n.ReadUint64(addr)
		if err != nil {
			return err
		}
		if v != 314 {
			t.Errorf("reader %d sees %d", n.ID(), v)
		}
		return n.Release(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultipleRangesOneLock: all ranges bound to a lock travel
// together.
func TestMultipleRangesOneLock(t *testing.T) {
	c := newCluster(t, 2)
	a := c.MustAlloc(8)
	b, _ := c.AllocPage(8) // a different page entirely
	c.Bind(3, a, 8)
	c.Bind(3, b, 8)
	n0, n1 := c.Node(0), c.Node(1)
	if err := n0.Acquire(3); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(b, 2); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(3); err != nil {
		t.Fatal(err)
	}
	if err := n1.Acquire(3); err != nil {
		t.Fatal(err)
	}
	va, err := n1.ReadUint64(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := n1.ReadUint64(b)
	if err != nil {
		t.Fatal(err)
	}
	if va != 1 || vb != 2 {
		t.Fatalf("got (%d,%d)", va, vb)
	}
	if err := n1.Release(3); err != nil {
		t.Fatal(err)
	}
}

// TestUnboundDataIsNotConsistent documents the EC contract: data not
// bound to the lock does NOT propagate with it.
func TestUnboundDataIsNotConsistent(t *testing.T) {
	c := newCluster(t, 2)
	bound := c.MustAlloc(8)
	unbound, _ := c.AllocPage(8)
	c.Bind(1, bound, 8)
	n0, n1 := c.Node(0), c.Node(1)
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(bound, 1); err != nil {
		t.Fatal(err)
	}
	if err := n0.WriteUint64(unbound, 99); err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Acquire(1); err != nil {
		t.Fatal(err)
	}
	vb, err := n1.ReadUint64(bound)
	if err != nil {
		t.Fatal(err)
	}
	vu, err := n1.ReadUint64(unbound)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(1); err != nil {
		t.Fatal(err)
	}
	if vb != 1 {
		t.Fatalf("bound data = %d", vb)
	}
	if vu != 0 {
		t.Fatalf("unbound data propagated (= %d); EC must not move it", vu)
	}
}

// TestMutualExclusionCounter: the canonical counter under EC.
func TestMutualExclusionCounter(t *testing.T) {
	c := newCluster(t, 4)
	addr := c.MustAlloc(8)
	c.Bind(1, addr, 8)
	err := c.Run(func(n *core.Node) error {
		for i := 0; i < 30; i++ {
			if err := n.Acquire(1); err != nil {
				return err
			}
			v, err := n.ReadUint64(addr)
			if err != nil {
				return err
			}
			if err := n.WriteUint64(addr, v+1); err != nil {
				return err
			}
			if err := n.Release(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n0 := c.Node(0)
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err := n0.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 120 {
		t.Fatalf("counter = %d, want 120", got)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
}

func newDiffCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Nodes:     nodes,
		Protocol:  core.ECDiff,
		PageSize:  256,
		HeapBytes: 1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDiffGrantsCorrectness: the counter and multi-range semantics
// must be identical under diff-mode grants.
func TestDiffGrantsCorrectness(t *testing.T) {
	c := newDiffCluster(t, 4)
	addr := c.MustAlloc(8)
	big, _ := c.AllocPage(4096) // large mostly-untouched bound region
	c.Bind(1, addr, 8)
	c.Bind(1, big, 4096)
	err := c.Run(func(n *core.Node) error {
		for i := 0; i < 25; i++ {
			if err := n.Acquire(1); err != nil {
				return err
			}
			v, err := n.ReadUint64(addr)
			if err != nil {
				return err
			}
			if err := n.WriteUint64(addr, v+1); err != nil {
				return err
			}
			// Scribble one word of the big region too.
			if err := n.WriteUint64(big+int64(n.ID())*64, v); err != nil {
				return err
			}
			if err := n.Release(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n0 := c.Node(0)
	if err := n0.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err := n0.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Release(1); err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

// TestDiffGrantsShipFewerBytes: with a large bound region and tiny
// writes, diff-mode grants must move far fewer payload bytes than
// full-copy grants on the same access pattern. A barrier ends each
// round so the three nodes take turns: left to the scheduler, one node
// can run all its rounds first, the others then fall further behind
// than the retained log reaches, and diff mode rightly ships them full
// copies — which is TestDiffGrantsLaggardGetsFullCopy's subject, not
// this test's.
func TestDiffGrantsShipFewerBytes(t *testing.T) {
	run := func(proto core.Protocol) int64 {
		c, err := core.NewCluster(core.Config{
			Nodes: 3, Protocol: proto, PageSize: 256, HeapBytes: 1 << 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		region, _ := c.AllocPage(8192)
		c.Bind(1, region, 8192)
		err = c.Run(func(n *core.Node) error {
			for i := 0; i < 10; i++ {
				if err := n.Acquire(1); err != nil {
					return err
				}
				if err := n.WriteUint64(region+int64(n.ID())*8, uint64(i)); err != nil {
					return err
				}
				if err := n.Release(1); err != nil {
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
		return c.TotalStats().GrantPayloadBytes
	}
	full := run(core.EC)
	diff := run(core.ECDiff)
	if diff*5 > full {
		t.Fatalf("diff grants moved %d payload bytes vs %d full-copy; want >5x reduction", diff, full)
	}
}

// TestDiffGrantsLaggardGetsFullCopy: a node that stayed away longer
// than the retained log must still end up correct (full-copy
// fallback).
func TestDiffGrantsLaggardGetsFullCopy(t *testing.T) {
	c := newDiffCluster(t, 3)
	addr := c.MustAlloc(8)
	c.Bind(1, addr, 8)
	n0, n1, n2 := c.Node(0), c.Node(1), c.Node(2)
	// n2 holds the lock once at version 0..1.
	if err := n2.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := n2.WriteUint64(addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := n2.Release(1); err != nil {
		t.Fatal(err)
	}
	// n0 and n1 alternate for far more versions than the log retains.
	for i := 0; i < 30; i++ {
		n := n0
		if i%2 == 1 {
			n = n1
		}
		if err := n.Acquire(1); err != nil {
			t.Fatal(err)
		}
		v, err := n.ReadUint64(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.WriteUint64(addr, v+1); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(1); err != nil {
			t.Fatal(err)
		}
	}
	// The laggard returns.
	if err := n2.Acquire(1); err != nil {
		t.Fatal(err)
	}
	got, err := n2.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Release(1); err != nil {
		t.Fatal(err)
	}
	if got != 31 {
		t.Fatalf("laggard read %d, want 31", got)
	}
}

// TestTokenRegrantIsPermissionOnly: a re-acquire where the token is
// ships nothing, and the grant the node builds for itself is the
// permission-only payload (the version alone), under ec and ec-diff;
// the bound data still travels with the next hand-off.
func TestTokenRegrantIsPermissionOnly(t *testing.T) {
	for _, proto := range []core.Protocol{core.EC, core.ECDiff} {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: proto, PageSize: 256, HeapBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			addr := c.MustAlloc(16)
			c.Bind(1, addr, 16)
			n0, n2 := c.Node(0), c.Node(2)
			for v := uint64(1); v <= 5; v++ { // lock 1 is managed by node 1
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
			st := n0.Runtime().Stats()
			if got := st.LockLocalGrants.Load(); got != 4 {
				t.Fatalf("%d of 4 re-acquires were local", got)
			}
			eng := n0.Runtime().Engine().(*ec.Engine)
			if p := eng.GrantPayload(1, n0.Runtime().ID(), dsync.Exclusive, eng.AcquirePayload(1)); len(p) != 8 {
				t.Fatalf("self-built grant is %d bytes, want the 8-byte version alone", len(p))
			}
			if err := n2.AcquireShared(1); err != nil {
				t.Fatal(err)
			}
			got, err := n2.ReadUint64(addr)
			if err != nil {
				t.Fatal(err)
			}
			if got != 5 {
				t.Fatalf("node 2 reads %d after the hand-off, want 5", got)
			}
			if err := n2.Release(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

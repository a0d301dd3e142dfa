package lrc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto/lrc"
)

// pingPong runs rounds of a lock hand-off between two nodes: node 0
// acquires lock 1, writes the round's value, releases; node 1 acquires,
// reads it and releases.
func pingPong(t *testing.T, c *core.Cluster, addr int64, rounds int) {
	t.Helper()
	n0, n1 := c.Node(0), c.Node(1)
	for r := 1; r <= rounds; r++ {
		if err := n0.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := n0.WriteUint64(addr, uint64(r)); err != nil {
			t.Fatal(err)
		}
		if err := n0.Release(1); err != nil {
			t.Fatal(err)
		}
		if err := n1.Acquire(1); err != nil {
			t.Fatal(err)
		}
		v, err := n1.ReadUint64(addr)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(r) {
			t.Fatalf("round %d: node 1 read %d", r, v)
		}
		if err := n1.Release(1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGrantCarriesDiffs: once the reader has fetched a page from the
// writer, every later grant from the writer carries the writer's diff
// of it, and the reader's fault validates from the push cache: one
// fetch in all, the first, which registers the interest.
func TestGrantCarriesDiffs(t *testing.T) {
	c := newCluster(t, 2)
	addr := c.MustAlloc(8)
	const rounds = 20
	pingPong(t, c, addr, rounds)
	st := c.TotalStats()
	if st.DiffFetches != 1 {
		t.Errorf("DiffFetches = %d, want 1 (the first read's)", st.DiffFetches)
	}
	if st.DiffPushes != rounds-1 {
		t.Errorf("DiffPushes = %d, want %d (one a grant after the first)", st.DiffPushes, rounds-1)
	}
}

// TestGrantPushOrderStaysBounded: a consumed push leaves the cache, and
// its key leaves the eviction order by the next compaction, so ten
// times the cache's capacity of grant-carried diffs leaves the order
// at most twice the capacity long.
func TestGrantPushOrderStaysBounded(t *testing.T) {
	c := newCluster(t, 2)
	addr := c.MustAlloc(8)
	pingPong(t, c, addr, 10*lrc.PushCacheCap)
	if got := c.TotalStats().DiffFetches; got != 1 {
		t.Errorf("DiffFetches = %d, want 1", got)
	}
	eng := c.Node(1).Runtime().Engine().(*lrc.Engine)
	if n := eng.PushOrderLen(); n > 2*lrc.PushCacheCap {
		t.Fatalf("push order holds %d keys after %d consumed pushes, cap %d", n, 10*lrc.PushCacheCap, lrc.PushCacheCap)
	}
}

// TestGrantChainFetchesOthersDiffs: in a chain W -> X -> R on one lock,
// X's grant to R carries X's own diff of the page but not W's, which
// only W holds: R takes X's from its push cache and fetches W's from W,
// one fetch a round once R has fetched from both.
func TestGrantChainFetchesOthersDiffs(t *testing.T) {
	c := newCluster(t, 3)
	addr := c.MustAlloc(16) // one page: W writes word 0, X word 1
	w, x, r := c.Node(0), c.Node(1), c.Node(2)
	locked := func(n *core.Node, f func() error) {
		t.Helper()
		if err := n.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(1); err != nil {
			t.Fatal(err)
		}
	}
	fetches := r.Runtime().Stats().DiffFetches.Load
	const rounds = 6
	for i := uint64(1); i <= rounds; i++ {
		locked(w, func() error { return w.WriteUint64(addr, i) })
		locked(x, func() error { return x.WriteUint64(addr+8, 100+i) })
		before := fetches()
		locked(r, func() error {
			v0, err := r.ReadUint64(addr)
			if err != nil {
				return err
			}
			v1, err := r.ReadUint64(addr + 8)
			if err != nil {
				return err
			}
			if v0 != i || v1 != 100+i {
				t.Errorf("round %d: R reads (%d, %d), want (%d, %d)", i, v0, v1, i, 100+i)
			}
			return nil
		})
		want := int64(1) // W's diff, from W
		if i == 1 {
			want = 2 // and X's, which registers R's interest at X
		}
		if got := fetches() - before; got != want {
			t.Errorf("round %d: R made %d diff fetches, want %d", i, got, want)
		}
	}
}

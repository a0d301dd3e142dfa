package dsync

import (
	"runtime/debug"
	"sync"
	"testing"
)

// A lock managed by the calling node involves no other goroutine and
// no network: its token starts there, so when Release returns the hold
// has ended, and nothing was sent — not even to the node itself.
func TestInlineSelfManagedLockIsSynchronous(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	const lock = 0 // managed by node 0
	ls := f.svcs[0].lockState(lock)
	held := ls.Holding
	for i := 0; i < 100; i++ {
		if err := f.svcs[0].Acquire(lock); err != nil {
			t.Fatal(err)
		}
		if !held() {
			t.Fatal("Acquire returned with the lock not held at its manager")
		}
		if err := f.svcs[0].Release(lock); err != nil {
			t.Fatal(err)
		}
		if held() {
			t.Fatal("Release returned with the lock still held at its manager")
		}
	}
	st := f.rts[0].Stats()
	if st.MsgsSent.Load() != 0 || st.LockAcquires.Load() != 100 {
		t.Fatalf("100 self-managed lock pairs: %d messages sent, %d acquires counted", st.MsgsSent.Load(), st.LockAcquires.Load())
	}
	if got := f.rts[0].Dispatched(); got != 0 {
		t.Fatalf("Dispatched = %d, want 0 (a cached token delivers nothing)", got)
	}
}

// KBarArrive must stay on its own goroutine: an interior node of the
// tree calls its parent from inside the handler, and its reply comes
// through a delivery path an inline handler would be holding up.
// Seven nodes at fanout 2 give two interior levels.
func TestInlineExcludesTreeBarrier(t *testing.T) {
	const n, episodes = 7, 20
	f := newFixture(t, n, Config{TreeBarrier: true, TreeFanout: 2}, nil)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				// Alternate roots so every node is interior sometimes.
				if err := f.svcs[i].Barrier(int32(e % n)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := f.rts[0].Stats().BarrierWaits.Load(); got != episodes {
		t.Fatalf("node 0 passed %d barriers, want %d", got, episodes)
	}
}

// lockPairs runs b.N uncontended Acquire+Release pairs of lock id on
// node 0 of a two-node fixture: id 0 is managed by the caller, id 1 by
// the peer.
func lockPairs(b *testing.B, id int32) {
	f := newFixture(b, 2, Config{}, nil)
	lockLoop(b, func(int) *Service { return f.svcs[0] }, id)
}

func BenchmarkLockLocal(b *testing.B)     { lockPairs(b, 0) }
func BenchmarkLockRemoteSim(b *testing.B) { lockPairs(b, 1) }

// BenchmarkLockReacquire: node 0 re-acquires a lock managed by node 1
// whose token it already holds — no message.
func BenchmarkLockReacquire(b *testing.B) {
	f := newFixture(b, 2, Config{}, nil)
	pairOf(b, f.svcs[0], 1, Exclusive)
	lockLoop(b, func(int) *Service { return f.svcs[0] }, 1)
}

// lockLoop times b.N acquire/release pairs of lock id, op i on node
// svc(i).
func lockLoop(b *testing.B, svc func(i int) *Service, id int32) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := svc(i)
		if err := s.Acquire(id); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockHandoff: two nodes take a lock managed by node 0 in
// turn, so every acquire moves the token: one op is one hand-off.
func BenchmarkLockHandoff(b *testing.B) {
	f := newFixture(b, 2, Config{}, nil)
	lockLoop(b, func(i int) *Service { return f.svcs[1-i%2] }, 2)
}

// TestLockLocalAllocBudget pins what an uncontended self-managed lock
// pair allocates. The bound was set when the pair was a request, grant
// and release through the manager (nine: three messages, their
// delivered copies, the reply slot and its channel); a cached token
// sends nothing and allocates nothing of its own. No goroutine, timer
// or wire buffer. Raise the bound only with a reason.
func TestLockLocalAllocBudget(t *testing.T) {
	const budget = 9
	f := newFixture(t, 2, Config{}, nil)
	svc := f.svcs[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(500, func() {
		if err := svc.Acquire(0); err != nil {
			t.Fatal(err)
		}
		if err := svc.Release(0); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Fatalf("local lock pair allocates %.1f times, budget %d", got, budget)
	}
}

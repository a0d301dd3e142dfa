package dsync

import (
	"runtime/debug"
	"sync"
	"testing"
)

// A lock managed by the calling node involves no other goroutine and
// no network: when Release returns the manager state is already
// updated, and nothing was sent.
func TestInlineSelfManagedLockIsSynchronous(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	const lock = 0 // managed by node 0
	ls := f.svcs[0].lockState(lock)
	held := func() bool {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return ls.held
	}
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
	if got := f.rts[0].UsefulDispatched(); got != 300 {
		t.Fatalf("UsefulDispatched = %d, want 300 (request, grant, release per pair)", got)
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
	svc := f.svcs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Acquire(id); err != nil {
			b.Fatal(err)
		}
		if err := svc.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockLocal(b *testing.B)     { lockPairs(b, 0) }
func BenchmarkLockRemoteSim(b *testing.B) { lockPairs(b, 1) }

// TestLockLocalAllocBudget pins what an uncontended self-managed lock
// pair allocates: the request, grant and release messages and the
// private copy each gets on delivery (six), plus the reply slot and
// its channel (three: a buffered channel of pointers is two). No
// goroutine, timer or wire buffer. Raise the bound only with a reason.
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

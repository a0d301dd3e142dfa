package dsync

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// nopEngine satisfies nodecore.Engine for sync-only tests.
type nopEngine struct{}

func (nopEngine) Name() string                { return "nop" }
func (nopEngine) Register(*nodecore.Runtime)  {}
func (nopEngine) Init()                       {}
func (nopEngine) ReadFault(mem.PageID) error  { return nil }
func (nopEngine) WriteFault(mem.PageID) error { return nil }

type fixture struct {
	net  *simnet.Net
	rts  []*nodecore.Runtime
	svcs []*Service
}

func newFixture(t testing.TB, n int, cfg Config, hooks func(i int) Hooks) *fixture {
	t.Helper()
	return newFixtureWith(t, n, cfg, hooks, nil)
}

// newFixtureWith is newFixture with a hook that sees each runtime
// before it starts (to enable reliability, say).
func newFixtureWith(t testing.TB, n int, cfg Config, hooks func(i int) Hooks, prep func(*nodecore.Runtime)) *fixture {
	t.Helper()
	net, err := simnet.New(simnet.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	// A wedged lock or barrier (a handler that blocks the dispatch
	// loop, say) should fail its test in seconds with the call named,
	// not hang until go test's own timeout.
	if cfg.AcquireTimeout == 0 {
		cfg.AcquireTimeout = 5 * time.Second
	}
	f := &fixture{net: net}
	for i := 0; i < n; i++ {
		tbl, err := mem.NewTable(1<<16, 256)
		if err != nil {
			t.Fatal(err)
		}
		rt := nodecore.New(simnet.NodeID(i), n, net.Endpoint(simnet.NodeID(i)), tbl, &stats.Node{})
		var h Hooks
		if hooks != nil {
			h = hooks(i)
		}
		rt.SetCallTimeout(5 * time.Second)
		if prep != nil {
			prep(rt)
		}
		svc := New(rt, h, cfg)
		rt.SetEngine(nopEngine{})
		f.rts = append(f.rts, rt)
		f.svcs = append(f.svcs, svc)
	}
	for _, rt := range f.rts {
		rt.Start()
	}
	t.Cleanup(func() {
		net.Close()
		for _, rt := range f.rts {
			rt.Close()
		}
	})
	return f
}

func TestLockMutualExclusion(t *testing.T) {
	f := newFixture(t, 4, Config{}, nil)
	var inside atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := f.svcs[i].Acquire(5); err != nil {
					t.Error(err)
					return
				}
				if v := inside.Add(1); v > peak.Load() {
					peak.Store(v)
				}
				counter++
				inside.Add(-1)
				if err := f.svcs[i].Release(5); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if peak.Load() != 1 {
		t.Fatalf("mutual exclusion violated: %d holders at once", peak.Load())
	}
	if counter != 200 {
		t.Fatalf("counter = %d, want 200 (lost updates)", counter)
	}
}

func TestSharedModeAllowsConcurrentReaders(t *testing.T) {
	f := newFixture(t, 3, Config{}, nil)
	var readers atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	hold := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f.svcs[i].AcquireShared(2); err != nil {
				t.Error(err)
				return
			}
			if v := readers.Add(1); v > peak.Load() {
				peak.Store(v)
			}
			<-hold
			readers.Add(-1)
			if err := f.svcs[i].Release(2); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Wait until all three are inside, then let them go.
	deadline := time.After(5 * time.Second)
	for readers.Load() != 3 {
		select {
		case <-deadline:
			t.Fatalf("only %d concurrent readers", readers.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(hold)
	wg.Wait()
	if peak.Load() != 3 {
		t.Fatalf("peak readers = %d, want 3", peak.Load())
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	if err := f.svcs[0].Acquire(1); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		if err := f.svcs[1].AcquireShared(1); err != nil {
			got <- err
			return
		}
		got <- f.svcs[1].Release(1)
	}()
	select {
	case <-got:
		t.Fatal("reader acquired while writer held the lock")
	case <-time.After(50 * time.Millisecond):
	}
	if err := f.svcs[0].Release(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never granted after writer release")
	}
}

func TestReaderDoesNotStarveQueuedWriter(t *testing.T) {
	f := newFixture(t, 3, Config{}, nil)
	if err := f.svcs[0].AcquireShared(3); err != nil {
		t.Fatal(err)
	}
	writerGot := make(chan struct{})
	go func() {
		if err := f.svcs[1].Acquire(3); err != nil {
			t.Error(err)
			return
		}
		close(writerGot)
		time.Sleep(20 * time.Millisecond)
		_ = f.svcs[1].Release(3)
	}()
	time.Sleep(30 * time.Millisecond) // writer is now queued
	readerGot := make(chan struct{})
	go func() {
		if err := f.svcs[2].AcquireShared(3); err != nil {
			t.Error(err)
			return
		}
		close(readerGot)
		_ = f.svcs[2].Release(3)
	}()
	time.Sleep(30 * time.Millisecond)
	select {
	case <-readerGot:
		t.Fatal("late reader jumped over queued writer")
	default:
	}
	if err := f.svcs[0].Release(3); err != nil {
		t.Fatal(err)
	}
	<-writerGot
	select {
	case <-readerGot:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never granted")
	}
}

func TestBarrierBlocksUntilAll(t *testing.T) {
	for _, tree := range []bool{false, true} {
		tree := tree
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			const n = 7
			f := newFixture(t, n, Config{TreeBarrier: tree, TreeFanout: 2}, nil)
			var arrived atomic.Int32
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					time.Sleep(time.Duration(i) * 3 * time.Millisecond)
					arrived.Add(1)
					errs[i] = f.svcs[i].Barrier(0)
					if got := arrived.Load(); got != n {
						errs[i] = fmt.Errorf("node %d released with only %d arrived", i, got)
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestBarrierReuse(t *testing.T) {
	for _, tree := range []bool{false, true} {
		tree := tree
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			const n = 4
			f := newFixture(t, n, Config{TreeBarrier: tree, TreeFanout: 2}, nil)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						if err := f.svcs[i].Barrier(1); err != nil {
							t.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// payloadHooks checks hook plumbing: arrive payloads are merged and
// redistributed; grants carry the releaser-built payload.
type payloadHooks struct {
	NopHooks
	id       int
	mu       sync.Mutex
	released []string
	granted  []string
}

func (h *payloadHooks) AcquirePayload(lock int32) []byte {
	return []byte(fmt.Sprintf("req-from-%d", h.id))
}

func (h *payloadHooks) GrantPayload(lock int32, to simnet.NodeID, mode Mode, req []byte) []byte {
	return []byte(fmt.Sprintf("grant-by-%d-for-%s", h.id, req))
}

func (h *payloadHooks) OnGranted(lock int32, mode Mode, payload []byte) {
	h.mu.Lock()
	h.granted = append(h.granted, string(payload))
	h.mu.Unlock()
}

func (h *payloadHooks) BarrierArrive(b int32) []byte {
	return []byte{byte(h.id)}
}

func (h *payloadHooks) BarrierMerge(b int32, ps [][]byte) []byte {
	var all []byte
	for _, p := range ps {
		all = append(all, p...)
	}
	return all
}

func (h *payloadHooks) OnBarrierRelease(b int32, p []byte) {
	h.mu.Lock()
	h.released = append(h.released, string(p))
	h.mu.Unlock()
}

func TestLockGrantPayloadPlumbing(t *testing.T) {
	hooks := make([]*payloadHooks, 3)
	f := newFixture(t, 3, Config{}, func(i int) Hooks {
		hooks[i] = &payloadHooks{id: i}
		return hooks[i]
	})
	// Node 1 acquires and releases; node 2 then acquires: its grant
	// payload must be built by node 1 (the last releaser) and name
	// node 2's request payload.
	if err := f.svcs[1].Acquire(4); err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[1].Release(4); err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[2].Acquire(4); err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[2].Release(4); err != nil {
		t.Fatal(err)
	}
	hooks[2].mu.Lock()
	defer hooks[2].mu.Unlock()
	want := "grant-by-1-for-req-from-2"
	if len(hooks[2].granted) != 1 || hooks[2].granted[0] != want {
		t.Fatalf("granted payloads = %q, want [%q]", hooks[2].granted, want)
	}
}

func TestBarrierPayloadMergesAll(t *testing.T) {
	for _, tree := range []bool{false, true} {
		tree := tree
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			const n = 5
			hooks := make([]*payloadHooks, n)
			f := newFixture(t, n, Config{TreeBarrier: tree, TreeFanout: 2}, func(i int) Hooks {
				hooks[i] = &payloadHooks{id: i}
				return hooks[i]
			})
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := f.svcs[i].Barrier(0); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				hooks[i].mu.Lock()
				if len(hooks[i].released) != 1 {
					t.Fatalf("node %d released %d times", i, len(hooks[i].released))
				}
				got := hooks[i].released[0]
				if len(got) != n {
					t.Fatalf("node %d merged payload has %d bytes (%q), want %d", i, len(got), got, n)
				}
				seen := map[byte]bool{}
				for _, b := range []byte(got) {
					seen[b] = true
				}
				if len(seen) != n {
					t.Fatalf("node %d merged payload missing arrivals: %v", i, got)
				}
				hooks[i].mu.Unlock()
			}
		})
	}
}

func TestLockStats(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	if err := f.svcs[0].Acquire(0); err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[0].Release(0); err != nil {
		t.Fatal(err)
	}
	if got := f.rts[0].Stats().LockAcquires.Load(); got != 1 {
		t.Fatalf("LockAcquires = %d", got)
	}
}

func TestManyLocksManyNodes(t *testing.T) {
	const n = 5
	f := newFixture(t, n, Config{}, nil)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for l := int32(0); l < 20; l++ {
				if err := f.svcs[i].Acquire(l); err != nil {
					t.Error(err)
					return
				}
				if err := f.svcs[i].Release(l); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestQueuedWaiterSurvivesDedupEviction: a waiter queued on a held lock
// keeps retransmitting its request while more than a dedup table's
// worth of other requests pass through the same manager and the same
// owner. Every retransmission must still be recognized as a duplicate
// — at the manager, which relayed it to the token's owner, and at the
// owner, where it waits. A forgotten request would be relayed or queued
// a second time, granted a second time to a node that is no longer
// asking, and the token would be lost.
func TestQueuedWaiterSurvivesDedupEviction(t *testing.T) {
	// The waiter waits out ~8400 other lock operations: well past the
	// fixture's default under the race detector.
	f := newFixtureWith(t, 3, Config{AcquireTimeout: time.Minute}, nil, func(rt *nodecore.Runtime) {
		// Retransmit every <= 4ms for as long as the test takes.
		rt.EnableReliability(nodecore.RetryPolicy{BackoffCap: 4 * time.Millisecond, MaxAttempts: 1 << 20}, 1)
	})
	const held, busy = 0, 3 // both managed by node 0
	mgr := f.rts[0].Stats()
	if err := f.svcs[1].Acquire(held); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- f.svcs[2].Acquire(held) }()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("the waiter's first retransmission", func() bool { return mgr.DupRequests.Load() > 0 })
	// Nodes 0 and 1 pass lock busy back and forth 4200 times: every
	// hand-off is a request through node 0 and one forwarded to the
	// token's owner, more than the 4096 each dedup table holds.
	for i := 0; i < 4200; i++ {
		for _, svc := range []*Service{f.svcs[1], f.svcs[0]} {
			if err := svc.Acquire(busy); err != nil {
				t.Fatal(err)
			}
			if err := svc.Release(busy); err != nil {
				t.Fatal(err)
			}
		}
	}
	dups := mgr.DupRequests.Load()
	waitFor("a retransmission after the tables turned over", func() bool { return mgr.DupRequests.Load() >= dups+2 })
	select {
	case err := <-granted:
		t.Fatalf("waiter returned while the lock was held: %v", err)
	default:
	}
	if err := f.svcs[1].Release(held); err != nil {
		t.Fatal(err)
	}
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[2].Release(held); err != nil {
		t.Fatal(err)
	}
	for i, want := range []tokState{tokAway, tokAway, tokOwned} {
		ls := f.svcs[i].lockState(held)
		ls.mu.Lock()
		tok, queued := ls.tok, len(ls.q)
		ls.mu.Unlock()
		if tok != want || queued != 0 {
			t.Fatalf("node %d: token state %d with %d queued, want %d and none: the waiter was granted twice", i, tok, queued, want)
		}
	}
	if got := f.rts[2].Stats().LockAcquires.Load(); got != 1 {
		t.Fatalf("waiter counted %d grants, want 1", got)
	}
	// And the lock still works.
	for _, svc := range f.svcs {
		if err := svc.Acquire(held); err != nil {
			t.Fatal(err)
		}
		if err := svc.Release(held); err != nil {
			t.Fatal(err)
		}
	}
}

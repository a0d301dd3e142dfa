package dsync

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/own"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wire"
)

func (f *fixture) msgs() int64 {
	var n int64
	for _, rt := range f.rts {
		n += rt.Stats().MsgsSent.Load()
	}
	return n
}

// tokens reports each node's token state, failing t unless the lock is
// quiet: nothing held, queued, asked for or being invalidated.
func (f *fixture) tokens(t *testing.T, id int32) []own.Tok {
	t.Helper()
	out := make([]own.Tok, len(f.svcs))
	for i, svc := range f.svcs {
		ls := svc.lockState(id).View()
		out[i] = ls.Tok
		if ls.Held != 0 || ls.Queued != 0 || ls.Asking || ls.Busy || ls.Invals != 0 {
			t.Errorf("node %d: lock %d not quiet: held %d, %d queued, asking %v, busy %v, %d invalidations pending",
				i, id, ls.Held, ls.Queued, ls.Asking, ls.Busy, ls.Invals)
		}
	}
	return out
}

// owners counts the nodes that own lock id's token.
func (f *fixture) owners(t *testing.T, id int32) int {
	t.Helper()
	n := 0
	for _, tok := range f.tokens(t, id) {
		if tok == own.Owned {
			n++
		}
	}
	return n
}

func pairOf(t testing.TB, svc *Service, id int32, mode Mode) {
	t.Helper()
	if err := svc.acquire(id, mode); err != nil {
		t.Fatal(err)
	}
	if err := svc.Release(id); err != nil {
		t.Fatal(err)
	}
}

// TestTokenReacquireSendsNothing: once node 0 holds lock 1 (managed by
// node 1), its next 1000 acquires, in either mode, are local.
func TestTokenReacquireSendsNothing(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	pairOf(t, f.svcs[0], 1, Exclusive)
	before := f.msgs()
	for i := 0; i < 1000; i++ {
		pairOf(t, f.svcs[0], 1, Mode(i%2))
	}
	if got := f.msgs() - before; got != 0 {
		t.Fatalf("1000 re-acquires by the last holder sent %d messages", got)
	}
	st := f.rts[0].Stats()
	if local, all := st.LockLocalGrants.Load(), st.LockAcquires.Load(); local != 1000 || all != 1001 {
		t.Fatalf("LockLocalGrants = %d of %d acquires, want 1000 of 1001", local, all)
	}
	if got := f.owners(t, 1); got != 1 {
		t.Fatalf("%d owners", got)
	}
}

// TestTokenHolderYieldsToForeignRequest: a holder that re-acquires in a
// loop hands the token to a foreign request queued during its hold at
// its next release, and its own next acquire waits for that holder.
func TestTokenHolderYieldsToForeignRequest(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	const id = 0 // node 0's token
	if err := f.svcs[0].Acquire(id); err != nil {
		t.Fatal(err)
	}
	var inside atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := f.svcs[1].Acquire(id)
		if err == nil {
			inside.Store(true)
			time.Sleep(20 * time.Millisecond)
			inside.Store(false)
			err = f.svcs[1].Release(id)
		}
		done <- err
	}()
	ls := f.svcs[0].lockState(id)
	for queued := false; !queued; {
		time.Sleep(time.Millisecond)
		queued = ls.View().Queued > 0
	}
	if err := f.svcs[0].Release(id); err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[0].Acquire(id); err != nil {
		t.Fatal(err)
	}
	if inside.Load() {
		t.Fatal("node 0 re-acquired while node 1 held the lock")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := f.svcs[0].Release(id); err != nil {
		t.Fatal(err)
	}
	if got := f.rts[1].Stats().LockAcquires.Load(); got != 1 {
		t.Fatalf("node 1 acquired %d times, want 1", got)
	}
}

// TestTokenRelayOutOfOrderForward: a forward that reaches a node after
// it handed the token on is relayed along succ to the owner. Here the
// manager's forward of node 0's shared request is replayed at node 1
// after node 1 handed the token to node 2.
func TestTokenRelayOutOfOrderForward(t *testing.T) {
	f := newFixture(t, 3, Config{}, nil)
	const id = 3 // managed by node 0
	pairOf(t, f.svcs[1], id, Exclusive)
	pairOf(t, f.svcs[2], id, Exclusive)
	reply, err := f.rts[0].CallT(&wire.Msg{Kind: wire.KLockReq, To: 1, Lock: id, Arg: uint64(Shared), B: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KLockGrant || reply.From != 2 {
		t.Fatalf("late forward answered by %v from node %d, want a grant from node 2", reply.Kind, reply.From)
	}
	if got := f.rts[1].Stats().Forwards.Load(); got != 1 {
		t.Fatalf("node 1 relayed %d times, want 1", got)
	}
	copyset := f.svcs[2].lockState(id).View().Copyset
	if len(copyset) != 1 || copyset[0] != 0 {
		t.Fatalf("owner's copyset = %v, want [0]", copyset)
	}
	// The copy is invalidated like any other when the token moves on.
	pairOf(t, f.svcs[1], id, Exclusive)
	if got := f.tokens(t, id); got[1] != own.Owned || f.owners(t, id) != 1 {
		t.Fatalf("token states %v, want node 1 the only owner", got)
	}
}

// TestTokenReaderUpgrade: an owner with readers takes the lock
// exclusively by invalidating them itself (no manager message), and a
// reader that asks for the token invalidates the other readers but not
// itself.
func TestTokenReaderUpgrade(t *testing.T) {
	f := newFixture(t, 3, Config{}, nil)
	const id = 0 // node 0 owns the token
	for _, r := range []int{1, 2} {
		pairOf(t, f.svcs[r], id, Shared)
	}
	before := f.msgs()
	reqs := f.rts[0].Stats().MsgsRecv.Load()
	pairOf(t, f.svcs[0], id, Exclusive)
	if got := f.msgs() - before; got != 4 {
		t.Fatalf("owner upgrade sent %d messages, want 4 (two invalidations, two acks)", got)
	}
	if got := f.rts[0].Stats().MsgsRecv.Load() - reqs; got != 2 {
		t.Fatalf("owner received %d messages during its upgrade, want the 2 acks", got)
	}

	for _, r := range []int{1, 2} {
		pairOf(t, f.svcs[r], id, Shared)
	}
	before = f.msgs()
	if err := f.svcs[1].Acquire(id); err != nil {
		t.Fatal(err)
	}
	// Request, invalidation of node 2, its ack, grant.
	if got := f.msgs() - before; got != 4 {
		t.Fatalf("reader upgrade sent %d messages, want 4", got)
	}
	read := make(chan error, 1)
	go func() {
		err := f.svcs[2].AcquireShared(id)
		if err == nil {
			err = f.svcs[2].Release(id)
		}
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("node 2 read under node 1's exclusive hold (err %v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := f.svcs[1].Release(id); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if got := f.owners(t, id); got != 1 {
		t.Fatalf("%d owners", got)
	}
}

// holdCheck counts holders inside a critical section and records any
// overlap of a writer with anyone.
type holdCheck struct {
	readers, writers atomic.Int32
	bad              atomic.Int32
	counter          int // written only by writers
}

func (h *holdCheck) enter(mode Mode) {
	if mode == Exclusive {
		if h.writers.Add(1) != 1 || h.readers.Load() != 0 {
			h.bad.Add(1)
		}
		h.counter++
		return
	}
	h.readers.Add(1)
	if h.writers.Load() != 0 {
		h.bad.Add(1)
	}
}

func (h *holdCheck) leave(mode Mode) {
	if mode == Exclusive {
		h.writers.Add(-1)
	} else {
		h.readers.Add(-1)
	}
}

// hammer runs goroutines per node, each taking lock id ops times with
// every third acquire shared and pausing after each release, and
// checks readers-writer exclusion.
func hammer(t *testing.T, f *fixture, id int32, goroutines, ops int, pause time.Duration) {
	t.Helper()
	var h holdCheck
	var wg sync.WaitGroup
	writes := 0
	for j := 0; j < ops; j++ {
		if j%3 != 2 {
			writes++
		}
	}
	for _, svc := range f.svcs {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(svc *Service) {
				defer wg.Done()
				for j := 0; j < ops; j++ {
					mode := Exclusive
					if j%3 == 2 {
						mode = Shared
					}
					if err := svc.acquire(id, mode); err != nil {
						t.Error(err)
						return
					}
					h.enter(mode)
					h.leave(mode)
					if err := svc.Release(id); err != nil {
						t.Error(err)
						return
					}
					time.Sleep(pause)
				}
			}(svc)
		}
	}
	wg.Wait()
	if h.bad.Load() != 0 {
		t.Fatalf("%d holds overlapped a writer", h.bad.Load())
	}
	if want := len(f.svcs) * goroutines * writes; h.counter != want {
		t.Fatalf("counter = %d, want %d (lost updates)", h.counter, want)
	}
	if got := f.owners(t, id); got != 1 {
		t.Fatalf("%d owners after the run", got)
	}
}

// TestTokenMutualExclusionGoroutines: 4 goroutines on each of 2 nodes
// share one lock; same-node goroutines queue in FIFO order on their
// node's queue.
func TestTokenMutualExclusionGoroutines(t *testing.T) {
	f := newFixture(t, 2, Config{}, nil)
	hammer(t, f, 1, 4, 300, 0)
}

// TestTokenSurvivesLoss: with 15% of frames dropped and retransmitted by
// the links (forwards, relays, grants, invalidations and their acks
// among them),
// readers-writer exclusion holds and exactly one node owns the token.
// The pauses keep the token moving: without them one node can finish
// its share on cached re-acquires before another's request arrives.
func TestTokenSurvivesLoss(t *testing.T) {
	f := newLossyFixture(t, 3, 0.15, 7)
	hammer(t, f, 2, 2, 100, 100*time.Microsecond)
	var dropped, retries int64
	for _, rt := range f.rts {
		dropped += rt.Stats().MsgsDropped.Load()
		retries += rt.Stats().Retries.Load()
	}
	if dropped == 0 || retries == 0 {
		t.Fatalf("%d drops, %d retries: the fault plan did not bite", dropped, retries)
	}
}

func newLossyFixture(t *testing.T, n int, drop float64, seed int64) *fixture {
	t.Helper()
	net, err := simnet.New(simnet.Config{Nodes: n, Seed: seed, Faults: &simnet.FaultPlan{DropProb: drop}})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = net.Endpoint(simnet.NodeID(i))
	}
	return startFixture(t, eps, net.Close)
}

// startFixture attaches a runtime and a Service to each endpoint.
func startFixture(t *testing.T, eps []transport.Endpoint, closeNet func()) *fixture {
	t.Helper()
	f := &fixture{}
	for i, ep := range eps {
		tbl, err := mem.NewTable(1<<16, 256)
		if err != nil {
			t.Fatal(err)
		}
		rt := nodecore.New(transport.NodeID(i), len(eps), ep, tbl, &stats.Node{})
		rt.SetCallTimeout(5 * time.Second)
		f.svcs = append(f.svcs, New(rt, nil, Config{AcquireTimeout: 10 * time.Second}))
		rt.SetEngine(nopEngine{})
		f.rts = append(f.rts, rt)
	}
	for _, rt := range f.rts {
		rt.Start()
	}
	t.Cleanup(func() {
		closeNet()
		for _, rt := range f.rts {
			rt.Close()
		}
	})
	return f
}

func newTCPFixture(t *testing.T, n int) *fixture {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*tcp.Transport, n)
	eps := make([]transport.Endpoint, n)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{Self: transport.NodeID(i), Addrs: addrs, Listener: lns[i], DialWindow: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		trs[i], eps[i] = tr, tr.Endpoint(transport.NodeID(i))
	}
	return startFixture(t, eps, func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
}

// TestBadReleaseFailsAtCaller: releasing a lock the node does not hold
// is the caller's error, named there, and disturbs no other node — on
// the simulator and over TCP.
func TestBadReleaseFailsAtCaller(t *testing.T) {
	for name, mk := range map[string]func(*testing.T) *fixture{
		"sim": func(t *testing.T) *fixture { return newFixture(t, 2, Config{}, nil) },
		"tcp": func(t *testing.T) *fixture { return newTCPFixture(t, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			pairOf(t, f.svcs[1], 0, Exclusive) // node 1 held lock 0 once
			for _, id := range []int32{0, 5} { // released, never touched
				err := f.svcs[1].Release(id)
				if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), fmt.Sprintf("lock %d", id)) {
					t.Fatalf("Release(%d) = %v, want an error naming node 1 and the lock", id, err)
				}
			}
			// Both nodes still work.
			pairOf(t, f.svcs[0], 0, Exclusive)
			pairOf(t, f.svcs[1], 0, Shared)
		})
	}
}

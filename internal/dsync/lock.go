package dsync

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Locks are cached tokens (DESIGN.md §4.13). One lockState per lock a
// node has touched serves every role: the manager's tail pointer, the
// owner's copyset and succ, and every node's holds, read copy and FIFO
// of forwarded requests and local goroutines. A request that reaches
// a node after it handed the token on is relayed along succ; only
// shared requests ever are, since each exclusive one is forwarded to
// the previous exclusive requester, the one node that can grant it.

type tokState uint8

const (
	tokAway    tokState = iota // another node owns the token
	tokWaiting                 // this node's exclusive request is out
	tokOwned
)

type lockState struct {
	mu   sync.Mutex
	tail transport.NodeID // manager only: the token's owner, or its next

	tok     tokState
	succ    transport.NodeID   // the node this one last handed the token to
	copyset []transport.NodeID // owner: nodes granted a read copy
	busy    bool               // owner: an invalidation round is running
	copy    bool               // a read copy: shared holds are local unless invalidated
	invals  []*wire.Msg        // invalidations to ack when the last shared hold ends
	asking  bool               // one of this node's goroutines has a request out

	held int // holds by this node's goroutines, all in mode
	mode Mode
	q    []waiter
}

// waiter is a forwarded request (m != nil) or a goroutine of this node.
type waiter struct {
	mode Mode
	m    *wire.Msg
	wake chan step
}

type step uint8

const (
	stepHold step = iota // the hold is counted
	stepAsk              // ask the manager
)

// effects are what advance decides under the lock's mutex; apply
// sends them after it is released.
type effects struct {
	acks    []*wire.Msg
	relays  []*wire.Msg // to succ
	succ    transport.NodeID
	grants  []*wire.Msg // forwarded requests granted in their own mode
	handoff *waiter     // exclusive, once readers are invalidated
	readers []transport.NodeID
}

func (s *Service) lockState(id int32) *lockState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[id]
	if !ok {
		ls = &lockState{tail: s.managerOf(id), succ: -1}
		if ls.tail == s.rt.ID() {
			ls.tok = tokOwned // a never-held lock's token is at its manager
		}
		s.locks[id] = ls
	}
	return ls
}

// canHold reports whether a goroutine of this node may hold the lock
// in mode now, with no message.
func (ls *lockState) canHold(mode Mode) bool {
	owner := ls.tok == tokOwned && !ls.busy
	if mode == Shared {
		return (ls.held == 0 || ls.mode == Shared) && (owner || ls.copy && len(ls.invals) == 0)
	}
	return owner && ls.held == 0 && len(ls.copyset) == 0
}

func (ls *lockState) hold(mode Mode) {
	ls.held++
	ls.mode = mode
}

// advance serves the queue's head for as long as it can. A local
// goroutine waits its turn behind forwarded requests: a re-acquire
// never jumps the queue.
func (s *Service) advance(ls *lockState, fx *effects) {
	for len(ls.q) > 0 {
		w := &ls.q[0]
		owner := ls.tok == tokOwned && !ls.busy
		switch {
		case w.m != nil && ls.tok == tokAway:
			fx.relays = append(fx.relays, w.m)
			fx.succ = ls.succ
		case w.m == nil && ls.canHold(w.mode):
			ls.hold(w.mode)
			w.wake <- stepHold
		case w.m != nil && w.mode == Shared && owner && ls.canHold(Shared):
			ls.copyset = append(ls.copyset, w.m.From)
			fx.grants = append(fx.grants, w.m)
		case w.mode == Exclusive && owner && ls.held == 0:
			var readers []transport.NodeID
			for _, r := range ls.copyset {
				if w.m == nil || r != w.m.From { // a requester's copy ends with its request
					readers = append(readers, r)
				}
			}
			if len(readers) == 0 {
				ls.tok, ls.succ = tokAway, w.m.From
				ls.copyset = ls.copyset[:0]
				fx.grants = append(fx.grants, w.m)
			} else {
				ls.busy = true
				hw := *w
				fx.handoff, fx.readers = &hw, readers
			}
		case w.m == nil && ls.startAsk(w.mode):
			w.wake <- stepAsk
		default:
			return
		}
		// Shift rather than reslice: the queue keeps its array.
		ls.q = ls.q[:copy(ls.q, ls.q[1:])]
	}
}

// startAsk marks a request from this node as out if one may go now:
// only one at a time, and an exclusive one only once the node's own
// holds on a read copy have ended.
func (ls *lockState) startAsk(mode Mode) bool {
	if ls.tok != tokAway || ls.asking || mode == Exclusive && ls.held > 0 {
		return false
	}
	ls.asking = true
	if mode == Exclusive {
		ls.tok, ls.copy = tokWaiting, false
	}
	return true
}

// apply sends what advance decided. A grant is the reply to the
// forwarded request, so it completes the requester's own call.
func (s *Service) apply(id int32, ls *lockState, fx *effects) {
	for _, m := range fx.acks {
		_ = s.rt.Ack(m)
	}
	for _, m := range fx.relays {
		fwd := *m
		fwd.B++
		_ = s.rt.Forward(&fwd, fx.succ)
	}
	for _, m := range fx.grants {
		payload := s.hooks.GrantPayload(id, m.From, Mode(m.Arg), m.Data)
		_ = s.rt.Reply(m, &wire.Msg{Kind: wire.KLockGrant, Lock: id, Arg: m.Arg, Data: payload})
	}
	if fx.handoff != nil {
		// The round blocks on the readers' releases: never inline, never
		// inside Release. It ends when its acks are in or at shutdown.
		go s.handoff(id, ls, fx.handoff, fx.readers)
	}
}

// Acquire obtains lock id in exclusive mode.
func (s *Service) Acquire(id int32) error { return s.acquire(id, Exclusive) }

// AcquireShared obtains lock id in shared (reader) mode. Writing
// under a shared hold is a program error: no protocol propagates it.
func (s *Service) AcquireShared(id int32) error { return s.acquire(id, Shared) }

func (s *Service) acquire(id int32, mode Mode) error {
	start := time.Now()
	s.rt.Tracer().Emit(trace.EvLockAcquire, int32(s.managerOf(id)), 0, -1, id, uint64(mode), 0)
	ls := s.lockState(id)
	ls.mu.Lock()
	if len(ls.q) == 0 {
		if ls.canHold(mode) {
			ls.hold(mode)
			ls.mu.Unlock()
			s.grantLocal(id, mode, start)
			return nil
		}
		if ls.startAsk(mode) {
			ls.mu.Unlock()
			return s.ask(id, ls, mode, start)
		}
	}
	w := waiter{mode: mode, wake: make(chan step, 1)}
	ls.q = append(ls.q, w)
	var fx effects
	s.advance(ls, &fx)
	ls.mu.Unlock()
	s.apply(id, ls, &fx)
	st, err := s.await(id, ls, w.wake)
	switch {
	case err != nil:
		return fmt.Errorf("dsync: acquire lock %d: %w", id, err)
	case st == stepAsk:
		return s.ask(id, ls, mode, start)
	}
	s.grantLocal(id, mode, start)
	return nil
}

// await waits for a queued goroutine's next step, for at most
// AcquireTimeout in the queue.
func (s *Service) await(id int32, ls *lockState, wake chan step) (step, error) {
	select {
	case st := <-wake:
		return st, nil
	default:
	}
	timer := time.NewTimer(s.cfg.AcquireTimeout)
	defer timer.Stop()
	select {
	case st := <-wake:
		return st, nil
	case <-s.rt.Done():
		return 0, fmt.Errorf("node %d: shutdown while queued", s.rt.ID())
	case <-timer.C:
	}
	var fx effects
	ls.mu.Lock()
	for i, x := range ls.q {
		if x.wake == wake {
			ls.q = append(ls.q[:i], ls.q[i+1:]...)
			s.advance(ls, &fx)
			ls.mu.Unlock()
			s.apply(id, ls, &fx)
			return 0, fmt.Errorf("node %d: queued for %v", s.rt.ID(), s.cfg.AcquireTimeout)
		}
	}
	ls.mu.Unlock()
	select { // advance took it off the queue: its step is coming
	case st := <-wake:
		return st, nil
	case <-s.rt.Done():
		return 0, fmt.Errorf("node %d: shutdown while queued", s.rt.ID())
	}
}

// ask obtains the lock through the manager. The grant's payload is
// installed before any other goroutine of this node can hold the lock.
func (s *Service) ask(id int32, ls *lockState, mode Mode, start time.Time) error {
	reply, err := s.rt.CallT(&wire.Msg{
		Kind: wire.KLockReq,
		To:   s.managerOf(id),
		Lock: id,
		Arg:  uint64(mode),
		Data: s.hooks.AcquirePayload(id),
	}, s.cfg.AcquireTimeout)
	if err == nil {
		s.rt.Stats().GrantPayloadBytes.Add(int64(len(reply.Data)))
		s.granted(id, mode, start, reply.From, reply.Data)
	}
	var fx effects
	ls.mu.Lock()
	ls.asking = false
	// On error an exclusive request stays out (tokWaiting): its grant
	// may still come, and a second request would break the manager's
	// chain.
	if err == nil {
		if mode == Exclusive {
			ls.tok = tokOwned
		}
		ls.copy = mode == Shared // invalidated already if invals is not empty
		ls.hold(mode)
	}
	s.advance(ls, &fx)
	ls.mu.Unlock()
	s.apply(id, ls, &fx)
	if err != nil {
		return fmt.Errorf("dsync: acquire lock %d: %w", id, err)
	}
	return nil
}

// grantLocal completes an acquire that sent no message. The acquirer
// builds its own grant, as an owner would, so each engine's OnGranted
// sees what it expects: no new notices under LRC, a permission-only
// grant under EC.
func (s *Service) grantLocal(id int32, mode Mode, start time.Time) {
	self := s.rt.ID()
	s.rt.Stats().LockLocalGrants.Add(1)
	s.granted(id, mode, start, self, s.hooks.GrantPayload(id, self, mode, s.hooks.AcquirePayload(id)))
}

func (s *Service) granted(id int32, mode Mode, start time.Time, from transport.NodeID, payload []byte) {
	wait := time.Since(start)
	st := s.rt.Stats()
	st.LockAcquires.Add(1)
	st.LockWaitNs.Add(wait.Nanoseconds())
	if st.Lat != nil {
		st.Lat.LockWait.Observe(wait.Nanoseconds())
	}
	s.rt.Tracer().Emit(trace.EvLockGrant, int32(from), 0, -1, id, uint64(mode), wait)
	s.hooks.OnGranted(id, mode, payload)
}

// Release gives up one of this node's holds on lock id, in either
// mode. It sends no message of its own; a hand-off or invalidation ack
// that waited for the hold to end goes out as a reply.
func (s *Service) Release(id int32) error {
	ls := s.lockState(id)
	notHeld := func() error {
		return fmt.Errorf("dsync: node %d: release of lock %d, which it does not hold", s.rt.ID(), id)
	}
	ls.mu.Lock()
	held := ls.held > 0
	ls.mu.Unlock()
	if !held {
		return notHeld()
	}
	s.hooks.OnRelease(id)
	// After the hooks run (the payload the next grant carries is now
	// built) and before the hold ends: everything emitted before this
	// point happens-before the next grant of id.
	s.rt.Tracer().Emit(trace.EvLockRelease, int32(s.managerOf(id)), 0, -1, id, 0, 0)
	var fx effects
	ls.mu.Lock()
	if ls.held == 0 { // a racing Release of the same hold
		ls.mu.Unlock()
		return notHeld()
	}
	ls.held--
	if ls.held == 0 && len(ls.invals) > 0 {
		fx.acks, ls.invals, ls.copy = ls.invals, nil, false
	}
	s.advance(ls, &fx)
	ls.mu.Unlock()
	s.apply(id, ls, &fx)
	return nil
}

// handleLockReq runs at the lock's manager (B == 0) or at a node the
// request was forwarded or relayed to.
func (s *Service) handleLockReq(m *wire.Msg) {
	ls := s.lockState(m.Lock)
	ls.mu.Lock()
	if tail := ls.tail; m.B == 0 {
		if tail == m.From {
			ls.mu.Unlock()
			panic(fmt.Sprintf("dsync: node %d: lock %d: request from node %d, which already owns or awaits the token", s.rt.ID(), m.Lock, m.From))
		}
		if Mode(m.Arg) == Exclusive {
			ls.tail = m.From
		}
		if tail != s.rt.ID() {
			ls.mu.Unlock()
			fwd := *m
			fwd.B = 1
			_ = s.rt.Forward(&fwd, tail)
			return
		}
	}
	var fx effects
	ls.q = append(ls.q, waiter{mode: Mode(m.Arg), m: m})
	s.advance(ls, &fx)
	ls.mu.Unlock()
	s.apply(m.Lock, ls, &fx)
}

// handleLockInval drops this node's read copy, acknowledging once no
// goroutine holds it. A copy still on its way (a shared request is
// out) is dropped after the hold its grant starts.
func (s *Service) handleLockInval(m *wire.Msg) {
	ls := s.lockState(m.Lock)
	ls.mu.Lock()
	if ls.copy && ls.held > 0 || !ls.copy && ls.asking && ls.tok == tokAway {
		ls.invals = append(ls.invals, m)
		ls.mu.Unlock()
		return
	}
	ls.copy = false
	ls.mu.Unlock()
	_ = s.rt.Ack(m)
}

// handoff collects an ack from every reader through CallBatched,
// asking again those still holding past the call timeout, then gives
// the lock to w: the token to a forwarded request, an exclusive hold
// to a goroutine of this node.
func (s *Service) handoff(id int32, ls *lockState, w *waiter, readers []transport.NodeID) {
	for len(readers) > 0 {
		msgs := make([]*wire.Msg, len(readers))
		for i, r := range readers {
			msgs[i] = &wire.Msg{Kind: wire.KLockInval, To: r, Lock: id}
		}
		replies, _ := s.rt.CallBatched(msgs)
		select {
		case <-s.rt.Done():
			return
		default:
		}
		// Not those that acked: one may be asking for a new copy, which
		// waits on this round.
		left := readers[:0]
		for i, r := range readers {
			if replies[i] == nil {
				left = append(left, r)
			}
		}
		readers = left
	}
	var fx effects
	ls.mu.Lock()
	ls.busy = false
	ls.copyset = ls.copyset[:0]
	if w.m != nil {
		ls.tok, ls.succ = tokAway, w.m.From
		fx.grants = []*wire.Msg{w.m}
	} else {
		ls.hold(Exclusive)
		w.wake <- stepHold
	}
	s.advance(ls, &fx)
	ls.mu.Unlock()
	s.apply(id, ls, &fx)
}

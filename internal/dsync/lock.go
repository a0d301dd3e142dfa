package dsync

import (
	"fmt"
	"time"

	"repro/internal/own"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Locks are cached tokens (DESIGN.md §4.13): the lock instance of the
// ownership protocol in package own. One own.State per lock a node has
// touched serves every role. A lock grant carries the engine's
// GrantPayload, its install is OnGranted, and a read copy has nothing
// to drop beyond the protocol's own flag, so an invalidation is acked
// when the last shared hold ends.

// lockRes is the lock instance.
type lockRes struct{ s *Service }

func (s *Service) lockState(id int32) *own.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[id]
	if !ok {
		ls = new(own.State)
		ls.Init(s.rt.ID(), s.managerOf(id)) // a never-held lock's token is at its manager
		s.locks[id] = ls
	}
	return ls
}

// Acquire obtains lock id in exclusive mode.
func (s *Service) Acquire(id int32) error { return s.acquire(id, Exclusive) }

// AcquireShared obtains lock id in shared (reader) mode. Writing
// under a shared hold is a program error: no protocol propagates it.
func (s *Service) AcquireShared(id int32) error { return s.acquire(id, Shared) }

func (s *Service) acquire(id int32, mode Mode) error {
	s.rt.Tracer().Emit(trace.EvLockAcquire, int32(s.managerOf(id)), 0, -1, id, uint64(mode), 0)
	if err := s.tokens.Acquire(s.lockState(id), id, mode); err != nil {
		return fmt.Errorf("dsync: acquire lock %d: %w", id, err)
	}
	return nil
}

// Release gives up one of this node's holds on lock id, in either
// mode. It sends no message of its own; a hand-off or invalidation ack
// that waited for the hold to end goes out as a reply.
func (s *Service) Release(id int32) error {
	if ls := s.lockState(id); ls.Holding() {
		s.hooks.OnRelease(id)
		// After the hooks run (the payload the next grant carries is now
		// built) and before the hold ends: everything emitted before this
		// point happens-before the next grant of id.
		s.rt.Tracer().Emit(trace.EvLockRelease, int32(s.managerOf(id)), 0, -1, id, 0, 0)
		if s.tokens.Release(ls, id) { // else a racing Release took the hold
			return nil
		}
	}
	return fmt.Errorf("dsync: node %d: release of lock %d, which it does not hold", s.rt.ID(), id)
}

func (l lockRes) Request(id int32, _ Mode) *wire.Msg {
	return &wire.Msg{Kind: wire.KLockReq, Lock: id, Data: l.s.hooks.AcquirePayload(id)}
}

func (l lockRes) Grant(id int32, m *wire.Msg, mode Mode, _ bool) *wire.Msg {
	return &wire.Msg{Kind: wire.KLockGrant, Lock: id, Arg: m.Arg, Data: l.s.hooks.GrantPayload(id, m.From, mode, m.Data)}
}

// Install completes an acquire. One that sent no message builds its
// own grant, as an owner would but with no request payload, so each
// engine's OnGranted sees what it expects: no new notices under LRC, a
// permission-only grant under EC. A zero start (nothing queued or
// sent) adds no lock wait.
func (l lockRes) Install(id int32, mode Mode, g *wire.Msg, start time.Time) {
	s, st := l.s, l.s.rt.Stats()
	from, payload := s.rt.ID(), []byte(nil)
	if g == nil {
		st.LockLocalGrants.Add(1)
		payload = s.hooks.GrantPayload(id, from, mode, nil)
	} else {
		from, payload = g.From, g.Data
		st.GrantPayloadBytes.Add(int64(len(payload)))
	}
	st.LockAcquires.Add(1)
	var wait time.Duration
	if !start.IsZero() {
		wait = time.Since(start)
		st.LockWaitNs.Add(wait.Nanoseconds())
		if st.Lat != nil {
			st.Lat.LockWait.Observe(wait.Nanoseconds())
		}
	}
	s.rt.Tracer().Emit(trace.EvLockGrant, int32(from), 0, -1, id, uint64(mode), wait)
	s.hooks.OnGranted(id, mode, payload)
}

func (lockRes) Invalidation(id int32) *wire.Msg {
	return &wire.Msg{Kind: wire.KLockInval, Lock: id}
}

func (lockRes) Drop(int32, transport.NodeID) {}

package dsync

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Events are set-once flags with blocking waiters — the
// interrupt-style ("suspend-lock") alternative to spinning on a
// shared flag, and the natural shape for producer-consumer handoffs
// under relaxed consistency: the Set is a release, the Wait-return an
// acquire, so consistency engines can attach the data the waiter is
// waiting *for* to the event firing itself (entry consistency binds
// ranges to the event id exactly as to a lock id).
//
// Placement mirrors locks: event e is managed by node e mod N; the
// manager forwards each waiter to the setter, which builds the grant
// payload and answers the waiter directly. Event ids live in their
// own namespace, separate from lock and barrier ids.

type evtState struct {
	mu      sync.Mutex
	set     bool
	setter  transport.NodeID
	waiters []pendGrant
}

func (s *Service) evtState(id int32) *evtState {
	s.mu.Lock()
	defer s.mu.Unlock()
	es, ok := s.events[id]
	if !ok {
		es = &evtState{setter: -1}
		s.events[id] = es
	}
	return es
}

// EventWait blocks until event id has been set, then installs the
// consistency payload (an acquire).
func (s *Service) EventWait(id int32) error {
	start := time.Now()
	tr := s.rt.Tracer()
	// Sync-edge events use the hook id (^id, negative) so the race
	// checker sees events and locks in one keyspace without collision.
	tr.Emit(trace.EvLockAcquire, int32(s.managerOf(id)), 0, -1, eventHookID(id), uint64(Shared), 0)
	payload := s.hooks.AcquirePayload(eventHookID(id))
	reply, err := s.rt.CallT(&wire.Msg{
		Kind: wire.KEvtWait,
		To:   s.managerOf(id),
		Lock: id,
		Data: payload,
	}, s.cfg.AcquireTimeout)
	if err != nil {
		return fmt.Errorf("dsync: wait event %d: %w", id, err)
	}
	wait := time.Since(start)
	st := s.rt.Stats()
	st.LockWaitNs.Add(wait.Nanoseconds())
	st.GrantPayloadBytes.Add(int64(len(reply.Data)))
	if st.Lat != nil {
		st.Lat.LockWait.Observe(wait.Nanoseconds())
	}
	s.hooks.OnGranted(eventHookID(id), Shared, reply.Data)
	tr.Emit(trace.EvLockGrant, int32(reply.From), 0, -1, eventHookID(id), uint64(Shared), wait)
	return nil
}

// EventSet fires event id, releasing all current and future waiters.
// Setting an already-set event is an error (events are set-once).
func (s *Service) EventSet(id int32) error {
	s.hooks.OnEventSet(eventHookID(id))
	s.rt.Tracer().Emit(trace.EvLockRelease, int32(s.managerOf(id)), 0, -1, eventHookID(id), 0, 0)
	return s.rt.Send(&wire.Msg{Kind: wire.KEvtSet, To: s.managerOf(id), Lock: id})
}

// eventHookID maps the event id into a hook-visible id distinct from
// lock ids, so engines that keep per-id state (EC versions, bindings)
// can share one keyspace. Applications bind EC data to an event with
// Cluster.BindEvent.
func eventHookID(id int32) int32 { return ^id } // negative ids = events

// EventHookID is exported for the core layer's binding helpers.
func EventHookID(id int32) int32 { return eventHookID(id) }

func (s *Service) handleEvtWait(m *wire.Msg) {
	if s.managerOf(m.Lock) != s.rt.ID() {
		// Forwarded grant duty: we are the setter.
		payload := s.hooks.GrantPayload(eventHookID(m.Lock), m.From, Shared, m.Data)
		_ = s.rt.Reply(m, &wire.Msg{Kind: wire.KEvtFired, Lock: m.Lock, Data: payload})
		return
	}
	es := s.evtState(m.Lock)
	pg := pendGrant{from: m.From, req: m.Req, payload: m.Data}
	es.mu.Lock()
	if !es.set {
		es.waiters = append(es.waiters, pg)
		es.mu.Unlock()
		return
	}
	setter := es.setter
	es.mu.Unlock()
	s.fireEvent(m.Lock, pg, setter)
}

func (s *Service) handleEvtSet(m *wire.Msg) {
	es := s.evtState(m.Lock)
	es.mu.Lock()
	if es.set {
		es.mu.Unlock()
		panic(fmt.Sprintf("dsync: node %d: event %d set twice (second setter %d)", s.rt.ID(), m.Lock, m.From))
	}
	es.set = true
	es.setter = m.From
	waiters := es.waiters
	es.waiters = nil
	es.mu.Unlock()
	for _, pg := range waiters {
		s.fireEvent(m.Lock, pg, es.setter)
	}
}

// fireEvent routes grant duty to the setter (or builds the payload
// locally when the manager is the setter).
func (s *Service) fireEvent(id int32, pg pendGrant, setter transport.NodeID) {
	if setter >= 0 && setter != s.rt.ID() {
		fwd := &wire.Msg{
			Kind: wire.KEvtWait,
			From: pg.from,
			To:   setter,
			Req:  pg.req,
			Lock: id,
			Data: pg.payload,
		}
		_ = s.rt.Forward(fwd, setter)
		return
	}
	payload := s.hooks.GrantPayload(eventHookID(id), pg.from, Shared, pg.payload)
	_ = s.rt.Send(&wire.Msg{
		Kind: wire.KEvtFired,
		To:   pg.from,
		Req:  pg.req,
		Lock: id,
		Data: payload,
	})
}

// Package dsync implements the DSM system's distributed
// synchronization service: queue-based locks with shared and
// exclusive modes (the structure Goodman-style queue locks and
// TreadMarks/Midway lock managers share) and barriers in centralized
// and tree variants.
//
// Consistency engines integrate through Hooks: acquire requests,
// grants, and barrier messages carry engine-defined payloads, which
// is how lazy release consistency piggybacks write notices on lock
// grants and entry consistency ships bound data with lock ownership.
//
// Placement: lock l is managed by node l mod N; barrier b by node
// b mod N. The manager forwards grant duty to the last releaser,
// which holds the consistency state the acquirer needs, and the
// releaser replies directly to the acquirer — three one-way messages
// per contended handoff, as in the queue-lock literature.
package dsync

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nodecore"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Mode distinguishes lock acquisition modes.
type Mode uint64

const (
	// Exclusive grants one holder with write intent.
	Exclusive Mode = 0
	// Shared grants any number of concurrent readers.
	Shared Mode = 1
)

// Hooks is implemented by consistency engines to piggyback protocol
// state on synchronization traffic. All methods are called on the
// node indicated; payloads are opaque to dsync. NopHooks provides
// no-op defaults.
type Hooks interface {
	// AcquirePayload runs at the acquirer when it requests a lock
	// (e.g. LRC sends its vector clock).
	AcquirePayload(lock int32) []byte
	// GrantPayload runs at the granting node (the last releaser, or
	// the manager for a never-held lock) to build the grant payload
	// for the given requester.
	GrantPayload(lock int32, to transport.NodeID, mode Mode, reqPayload []byte) []byte
	// OnGranted runs at the acquirer before Acquire returns.
	OnGranted(lock int32, mode Mode, payload []byte)
	// OnRelease runs at the holder before the release is sent; eager
	// release consistency flushes here, LRC closes its interval.
	OnRelease(lock int32)
	// OnEventSet runs at the setter before an event fires. Like a
	// release, but unconditional (the setter never "acquired" the
	// event). The id passed is the event hook id (see EventHookID).
	OnEventSet(id int32)
	// BarrierArrive runs at each node entering a barrier.
	BarrierArrive(barrier int32) []byte
	// BarrierMerge combines arrival payloads. It must be associative:
	// the tree barrier merges partial sets at interior nodes.
	BarrierMerge(barrier int32, payloads [][]byte) []byte
	// OnBarrierRelease runs at each node leaving a barrier with the
	// fully merged payload.
	OnBarrierRelease(barrier int32, payload []byte)
}

// ReleaseFilter is an optional extension of Hooks. When the engine
// implements it, each barrier release payload is passed through
// BarrierReleaseFor with the receiver's identity, letting the engine
// strip receiver-specific piggybacked state (LRC drops the diffs
// addressed to other readers) so release bytes stay proportional to
// what each node actually consumes. It runs at whichever node sends
// the release (the manager, or a tree-barrier interior node) and must
// not mutate merged.
type ReleaseFilter interface {
	BarrierReleaseFor(barrier int32, to transport.NodeID, merged []byte) []byte
}

// NopHooks is a Hooks implementation that does nothing; protocols
// without sync-piggybacked state (SC, write-update) embed it.
type NopHooks struct{}

// AcquirePayload returns nil.
func (NopHooks) AcquirePayload(int32) []byte { return nil }

// GrantPayload returns nil.
func (NopHooks) GrantPayload(int32, transport.NodeID, Mode, []byte) []byte { return nil }

// OnGranted does nothing.
func (NopHooks) OnGranted(int32, Mode, []byte) {}

// OnRelease does nothing.
func (NopHooks) OnRelease(int32) {}

// OnEventSet does nothing.
func (NopHooks) OnEventSet(int32) {}

// BarrierArrive returns nil.
func (NopHooks) BarrierArrive(int32) []byte { return nil }

// BarrierMerge returns nil.
func (NopHooks) BarrierMerge(int32, [][]byte) []byte { return nil }

// OnBarrierRelease does nothing.
func (NopHooks) OnBarrierRelease(int32, []byte) {}

// Config tunes the service.
type Config struct {
	// TreeBarrier selects the tree barrier; false = centralized.
	TreeBarrier bool
	// TreeFanout is the barrier tree arity (default 4).
	TreeFanout int
	// AcquireTimeout bounds lock waits (default 2 minutes). A
	// timeout indicates an application deadlock or a protocol bug.
	AcquireTimeout time.Duration
}

// Service is the per-node synchronization endpoint.
type Service struct {
	rt    *nodecore.Runtime
	hooks Hooks
	cfg   Config

	mu     sync.Mutex
	locks  map[int32]*lockState
	bars   map[int32]*barState
	events map[int32]*evtState
}

type pendGrant struct {
	from    transport.NodeID
	req     uint64
	mode    Mode
	payload []byte
}

type lockState struct {
	mu           sync.Mutex
	mode         Mode // valid when held
	held         bool
	sharedCount  int
	lastReleaser transport.NodeID // -1 until first release
	queue        []pendGrant
}

type barState struct {
	mu       sync.Mutex
	payloads [][]byte
	waiters  []pendGrant
}

// New attaches a synchronization service to a runtime. The hooks may
// be nil (treated as NopHooks).
func New(rt *nodecore.Runtime, hooks Hooks, cfg Config) *Service {
	if hooks == nil {
		hooks = NopHooks{}
	}
	if cfg.TreeFanout <= 1 {
		cfg.TreeFanout = 4
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = 2 * time.Minute
	}
	s := &Service{
		rt:     rt,
		hooks:  hooks,
		cfg:    cfg,
		locks:  make(map[int32]*lockState),
		bars:   make(map[int32]*barState),
		events: make(map[int32]*evtState),
	}
	// Lock and event handlers only take their state's mutex, call the
	// local GrantPayload hook and Send/Forward: HandleInline's rule holds
	// (a request's *reply* is what waits, hence blocking). The barrier
	// handler's tree variant calls its parent, so it keeps a goroutine.
	rt.HandleInline(wire.KLockReq, s.handleLockReq)
	rt.HandleInline(wire.KLockRel, s.handleLockRel)
	rt.Handle(wire.KBarArrive, s.handleBarArrive)
	rt.HandleInline(wire.KEvtWait, s.handleEvtWait)
	rt.HandleInline(wire.KEvtSet, s.handleEvtSet)
	rt.MarkBlocking(wire.KLockReq, wire.KBarArrive, wire.KEvtWait)
	return s
}

// SetHooks replaces the hooks (used when the engine is constructed
// after the service).
func (s *Service) SetHooks(h Hooks) {
	if h == nil {
		h = NopHooks{}
	}
	s.hooks = h
}

func (s *Service) managerOf(id int32) transport.NodeID {
	if id < 0 {
		panic(fmt.Sprintf("dsync: negative lock/barrier id %d", id))
	}
	return s.rt.HomeOf(id)
}

func (s *Service) lockState(id int32) *lockState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[id]
	if !ok {
		ls = &lockState{lastReleaser: -1}
		s.locks[id] = ls
	}
	return ls
}

func (s *Service) barState(id int32) *barState {
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.bars[id]
	if !ok {
		bs = &barState{}
		s.bars[id] = bs
	}
	return bs
}

// Acquire obtains lock id in exclusive mode.
func (s *Service) Acquire(id int32) error { return s.acquire(id, Exclusive) }

// AcquireShared obtains lock id in shared (reader) mode.
func (s *Service) AcquireShared(id int32) error { return s.acquire(id, Shared) }

func (s *Service) acquire(id int32, mode Mode) error {
	start := time.Now()
	tr := s.rt.Tracer()
	tr.Emit(trace.EvLockAcquire, int32(s.managerOf(id)), 0, -1, id, uint64(mode), 0)
	payload := s.hooks.AcquirePayload(id)
	reply, err := s.rt.CallT(&wire.Msg{
		Kind: wire.KLockReq,
		To:   s.managerOf(id),
		Lock: id,
		Arg:  uint64(mode),
		Data: payload,
	}, s.cfg.AcquireTimeout)
	if err != nil {
		return fmt.Errorf("dsync: acquire lock %d: %w", id, err)
	}
	wait := time.Since(start)
	st := s.rt.Stats()
	st.LockAcquires.Add(1)
	st.LockWaitNs.Add(wait.Nanoseconds())
	st.GrantPayloadBytes.Add(int64(len(reply.Data)))
	if st.Lat != nil {
		st.Lat.LockWait.Observe(wait.Nanoseconds())
	}
	tr.Emit(trace.EvLockGrant, int32(reply.From), 0, -1, id, uint64(mode), wait)
	s.hooks.OnGranted(id, mode, reply.Data)
	return nil
}

// Release gives up lock id (either mode; the service remembers which
// mode was granted at the manager).
func (s *Service) Release(id int32) error {
	s.hooks.OnRelease(id)
	// After the hooks run (the payload the next grant carries is now
	// built) and before the wire release: everything emitted before
	// this point happens-before the next grant of id.
	s.rt.Tracer().Emit(trace.EvLockRelease, int32(s.managerOf(id)), 0, -1, id, 0, 0)
	return s.notifyManager(wire.KLockRel, id)
}

// notifyManager tells id's manager of a release or an event set.
// Fault-free mode sends it one-way (the queue-lock literature's shape);
// a lost one would strand every queued waiter, so reliable mode
// upgrades it to an acknowledged, retried request — the receive-side
// dedup table keeps a retransmitted set from tripping the set-once
// check (see ackIfAsked).
func (s *Service) notifyManager(kind wire.Kind, id int32) error {
	m := &wire.Msg{Kind: kind, To: s.managerOf(id), Lock: id}
	if s.rt.Reliable() {
		_, err := s.rt.CallT(m, s.cfg.AcquireTimeout)
		return err
	}
	return s.rt.Send(m)
}

// handleLockReq runs either at the lock's manager (queue/grant
// decision) or at a granter the manager forwarded the request to
// (build payload and grant directly to the requester).
func (s *Service) handleLockReq(m *wire.Msg) {
	if s.managerOf(m.Lock) != s.rt.ID() {
		// Forwarded grant duty: we are the last releaser.
		payload := s.hooks.GrantPayload(m.Lock, m.From, Mode(m.Arg), m.Data)
		_ = s.rt.Reply(m, &wire.Msg{Kind: wire.KLockGrant, Lock: m.Lock, Arg: m.Arg, Data: payload})
		return
	}
	ls := s.lockState(m.Lock)
	pg := pendGrant{from: m.From, req: m.Req, mode: Mode(m.Arg), payload: m.Data}
	ls.mu.Lock()
	grantNow := false
	switch {
	case !ls.held:
		ls.held = true
		ls.mode = pg.mode
		if pg.mode == Shared {
			ls.sharedCount = 1
		}
		grantNow = true
	case ls.mode == Shared && pg.mode == Shared && len(ls.queue) == 0:
		// Reader joins current shared holders, but never jumps over a
		// queued writer (prevents writer starvation).
		ls.sharedCount++
		grantNow = true
	default:
		ls.queue = append(ls.queue, pg)
	}
	granter := ls.lastReleaser
	ls.mu.Unlock()
	if grantNow {
		s.grant(m.Lock, pg, granter)
	}
}

// grant routes grant duty: to the last releaser if there is one,
// otherwise this manager builds the (empty) initial payload itself.
func (s *Service) grant(lock int32, pg pendGrant, granter transport.NodeID) {
	if granter >= 0 && granter != s.rt.ID() {
		// Re-materialize the original request and forward it; the
		// granter replies straight to the requester.
		fwd := &wire.Msg{
			Kind: wire.KLockReq,
			From: pg.from,
			To:   granter,
			Req:  pg.req,
			Lock: lock,
			Arg:  uint64(pg.mode),
			Data: pg.payload,
		}
		_ = s.rt.Forward(fwd, granter)
		return
	}
	payload := s.hooks.GrantPayload(lock, pg.from, pg.mode, pg.payload)
	_ = s.rt.Send(&wire.Msg{
		Kind: wire.KLockGrant,
		To:   pg.from,
		Req:  pg.req,
		Lock: lock,
		Arg:  uint64(pg.mode),
		Data: payload,
	})
}

func (s *Service) handleLockRel(m *wire.Msg) {
	ls := s.lockState(m.Lock)
	var grants []pendGrant
	ls.mu.Lock()
	if !ls.held {
		ls.mu.Unlock()
		panic(fmt.Sprintf("dsync: node %d: release of un-held lock %d by node %d", s.rt.ID(), m.Lock, m.From))
	}
	if ls.mode == Shared {
		ls.sharedCount--
		if ls.sharedCount > 0 {
			ls.mu.Unlock()
			s.ackIfAsked(m)
			return
		}
	}
	// Fully released.
	ls.lastReleaser = m.From
	ls.held = false
	if len(ls.queue) > 0 {
		next := ls.queue[0]
		if next.mode == Exclusive {
			ls.queue = ls.queue[1:]
			ls.held = true
			ls.mode = Exclusive
			grants = []pendGrant{next}
		} else {
			// Grant the maximal prefix run of readers together.
			i := 0
			for i < len(ls.queue) && ls.queue[i].mode == Shared {
				i++
			}
			grants = append(grants, ls.queue[:i]...)
			ls.queue = append([]pendGrant(nil), ls.queue[i:]...)
			ls.held = true
			ls.mode = Shared
			ls.sharedCount = len(grants)
		}
	}
	granter := ls.lastReleaser
	ls.mu.Unlock()
	s.ackIfAsked(m)
	for _, pg := range grants {
		s.grant(m.Lock, pg, granter)
	}
}

// ackIfAsked acknowledges requests that carry a request id — i.e.
// releases and event-sets sent through the reliable Call path. The
// fault-free one-way forms have Req == 0 and get no (billed) reply.
func (s *Service) ackIfAsked(m *wire.Msg) {
	if m.Req != 0 {
		_ = s.rt.Ack(m)
	}
}

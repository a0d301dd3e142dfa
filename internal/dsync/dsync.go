// Package dsync implements the DSM system's distributed
// synchronization service: locks with shared and exclusive modes,
// barriers in centralized and tree variants, and set-once events.
//
// Consistency engines integrate through Hooks: acquire requests,
// grants, and barrier messages carry engine-defined payloads, which
// is how lazy release consistency piggybacks write notices on lock
// grants and entry consistency ships bound data with lock ownership.
//
// Placement: lock l is managed by node l mod N; barrier b by node
// b mod N. A lock is a cached token under IVY's MRSW protocol: a
// re-acquire where the token or a valid read copy is, and every
// release, send nothing. A token that moves costs the request to the
// manager, its forward to the owner and the owner's grant, plus an
// invalidation round trip per read copy a writer displaces.
package dsync

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nodecore"
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
	// GrantPayload runs at the granting node — the token's owner, the
	// last exclusive holder (or the manager for a never-held lock) — to
	// build the grant payload for the given requester. A grant that
	// needs no message is built by the acquirer for itself
	// (to == its own id, reqPayload its own AcquirePayload).
	GrantPayload(lock int32, to transport.NodeID, mode Mode, reqPayload []byte) []byte
	// OnGranted runs at the acquirer before Acquire returns.
	OnGranted(lock int32, mode Mode, payload []byte)
	// OnRelease runs at the holder before the hold ends; eager
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
	payload []byte
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
	// local GrantPayload hook and Send/Forward/Reply: HandleInline's
	// rule holds (a request's *reply* is what waits; an invalidation's
	// ack waits on the reader's release). The barrier handler's tree
	// variant calls its parent, so it keeps a goroutine.
	rt.HandleInline(wire.KLockReq, s.handleLockReq)
	rt.HandleInline(wire.KLockInval, s.handleLockInval)
	rt.Handle(wire.KBarArrive, s.handleBarArrive)
	rt.HandleInline(wire.KEvtWait, s.handleEvtWait)
	rt.HandleInline(wire.KEvtSet, s.handleEvtSet)
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

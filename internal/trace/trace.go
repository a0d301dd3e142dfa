// Package trace implements the DSM system's causal event tracer: a
// per-node, fixed-capacity, atomically indexed ring buffer of typed
// protocol events (page faults, RPC send/recv/retry, lock and barrier
// synchronization, batch flushes, diff movement, chaos injections),
// each stamped with the node's monotonic clock and its current vector
// clock. Per-node streams merge into one causally ordered cluster
// timeline (merge.go), export as Chrome-trace-event JSON loadable in
// Perfetto (chrome.go), and serve live over an opt-in HTTP debug
// endpoint (debug.go).
//
// The tracer is built to be free when absent: every method is safe on
// a nil *Tracer and returns immediately, so instrumentation sites
// guard with one nil check and the disabled hot path performs zero
// allocations and zero atomic traffic (enforced by alloc_test.go).
// When enabled, Emit is one short mutex section (vector-clock tick and
// slot write together, so ring order is clock order) and
// allocation-free; a full ring overwrites oldest events and counts
// them as dropped rather than blocking or growing.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Type identifies an event's kind.
type Type uint8

const (
	// EvNone is the zero Type; it never appears in a committed event.
	EvNone Type = iota
	// EvFaultBegin marks entry to the engine fault handler.
	// Page is set; Arg is 0 for a read fault, 1 for a write fault.
	EvFaultBegin
	// EvFaultEnd marks fault completion; Dur is the service time.
	EvFaultEnd
	// EvSend marks a message transmission. Peer is the destination,
	// Req the request id (0 for one-ways), Arg packs kind+attempt.
	EvSend
	// EvRecv marks a message delivery to the runtime. Peer is
	// the origin; Arg packs kind+attempt.
	EvRecv
	// EvRetry marks a retransmission decision (the re-send itself
	// also appears as EvSend with a non-zero attempt).
	EvRetry
	// EvLockAcquire marks a lock (or event-wait) request being issued;
	// Lock is the id, Arg the mode.
	EvLockAcquire
	// EvLockGrant marks the grant arriving; Dur is the wait.
	EvLockGrant
	// EvBarArrive marks arrival at a barrier; Lock is the barrier id.
	EvBarArrive
	// EvBarRelease marks the release arriving; Dur is the wait.
	EvBarRelease
	// EvBatchFlush marks a multi-message batch frame being sent;
	// Peer is the destination, Arg the member count.
	EvBatchFlush
	// EvDiffPush marks a diff bundle pushed to an interested reader
	// or home node; Peer is the receiver, Page the page.
	EvDiffPush
	// EvDiffFetch marks a remote diff (or home-copy) fetch being
	// issued; Peer is the holder, Page the page.
	EvDiffFetch
	// EvChaos marks a fault injection observed by this node's
	// endpoint; Arg is a Chaos* code, Peer the other end (or -1).
	EvChaos
	// EvRead marks a completed application read of shared memory.
	// Page is set, Arg packs offset+length (AccessArg), Req carries
	// the FNV-64a hash of the bytes read (HashBytes). Only emitted
	// when access tracing is enabled (core.Config.AccessTrace).
	EvRead
	// EvWrite marks a completed application write; fields as EvRead,
	// with Req hashing the bytes written.
	EvWrite
	// EvLockRelease marks a lock (or event-set) release being issued;
	// Lock is the id. Together with EvLockGrant it forms the
	// release→grant sync edge the race checker consumes.
	EvLockRelease
	// EvMark is a synthetic synchronization mark: Cluster.Run emits a
	// fork mark on every node before spawning workers and a join mark
	// after they all return, giving the race checker the program's
	// fork/join edges. Arg packs phase+generation (MarkArg).
	EvMark
	numTypes
)

var typeNames = [...]string{
	EvNone:        "none",
	EvFaultBegin:  "fault-begin",
	EvFaultEnd:    "fault-end",
	EvSend:        "send",
	EvRecv:        "recv",
	EvRetry:       "retry",
	EvLockAcquire: "lock-acquire",
	EvLockGrant:   "lock-grant",
	EvBarArrive:   "bar-arrive",
	EvBarRelease:  "bar-release",
	EvBatchFlush:  "batch-flush",
	EvDiffPush:    "diff-push",
	EvDiffFetch:   "diff-fetch",
	EvChaos:       "chaos",
	EvRead:        "read",
	EvWrite:       "write",
	EvLockRelease: "lock-release",
	EvMark:        "mark",
}

// String names the event type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "invalid"
}

// Chaos injection codes carried in Event.Arg of EvChaos events.
const (
	ChaosDrop      uint64 = iota + 1 // message dropped (probabilistic or partitioned link)
	ChaosDup                         // message duplicated
	ChaosSpike                       // latency spike applied
	ChaosPartition                   // link partition opened (Dur = planned duration)
	ChaosStall                       // endpoint stall injected (Dur = planned duration)
)

var chaosNames = map[uint64]string{
	ChaosDrop:      "drop",
	ChaosDup:       "dup",
	ChaosSpike:     "spike",
	ChaosPartition: "partition",
	ChaosStall:     "stall",
}

// ChaosName names a Chaos* code.
func ChaosName(code uint64) string {
	if n, ok := chaosNames[code]; ok {
		return n
	}
	return "unknown"
}

// MsgArg packs a wire message's kind and attempt counter into an
// Event.Arg for EvSend/EvRecv/EvRetry events.
func MsgArg(kind, attempt uint8) uint64 { return uint64(kind) | uint64(attempt)<<8 }

// AccessArg packs a page-relative offset and byte length into an
// Event.Arg for EvRead/EvWrite events.
func AccessArg(off, length int) uint64 {
	return uint64(uint32(off)) | uint64(uint32(length))<<32
}

// AccessOff extracts the page-relative offset from an access event.
func (e Event) AccessOff() int { return int(uint32(e.Arg)) }

// AccessLen extracts the byte length from an access event.
func (e Event) AccessLen() int { return int(uint32(e.Arg >> 32)) }

// EvMark phases carried in the low byte of Event.Arg. Fork release
// marks are emitted on every node before Cluster.Run spawns workers;
// each worker's first action is (conceptually) the matching acquire —
// emitted immediately after on its own node. Join marks mirror this
// around the workers' return.
const (
	MarkForkRelease uint64 = iota + 1
	MarkForkAcquire
	MarkJoinRelease
	MarkJoinAcquire
)

// MarkArg packs an EvMark phase and Run-generation counter.
func MarkArg(phase uint64, gen uint32) uint64 { return phase | uint64(gen)<<8 }

// MarkPhase extracts the Mark* phase from an EvMark event.
func (e Event) MarkPhase() uint64 { return e.Arg & 0xff }

// MarkGen extracts the Run generation from an EvMark event.
func (e Event) MarkGen() uint32 { return uint32(e.Arg >> 8) }

// FNV-64a constants for value hashing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashBytes returns the FNV-64a hash of b, the value stamp carried in
// EvRead/EvWrite events' Req field. Allocation-free.
func HashBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// HashZero returns HashBytes of n zero bytes without materializing
// them — the value stamp of never-written memory.
func HashZero(n int) uint64 {
	h := fnvOffset
	for i := 0; i < n; i++ {
		h *= fnvPrime
	}
	return h
}

// ClockWidth is the number of vector-clock components stored inline
// in each Event. Clusters wider than this truncate the stored clock
// (the merge layer reconstructs full-width clocks regardless).
const ClockWidth = 16

// Event is one traced occurrence. It is a fixed-size value — no
// pointers, no slices — so recording one is a struct copy into a
// pre-allocated ring slot.
type Event struct {
	TS   int64  // ns since the tracer's epoch (monotonic)
	Dur  int64  // ns span for paired events (fault end, lock grant, barrier release); else 0
	Req  uint64 // request id for RPC events; 0 when absent
	Arg  uint64 // type-specific: MsgArg, mode, member count, Chaos* code
	Node int32  // emitting node
	Peer int32  // other party for RPC/diff/chaos events; -1 when absent
	Page int32  // page id for fault/diff events; -1 when absent
	Lock int32  // lock/barrier/event id for sync events; -1 when absent
	Type Type
	VC   [ClockWidth]uint32 // the node's vector clock at emission (truncated to ClockWidth)
}

// MsgKind extracts the wire kind from an RPC event's Arg.
func (e Event) MsgKind() uint8 { return uint8(e.Arg) }

// MsgAttempt extracts the attempt counter from an RPC event's Arg.
func (e Event) MsgAttempt() uint8 { return uint8(e.Arg >> 8) }

// DefaultCapacity is the per-node ring capacity when
// core.Config.TraceCapacity is zero.
const DefaultCapacity = 1 << 14

// Tracer is one node's event ring. All methods are safe on a nil
// receiver (tracing disabled) and safe for concurrent use.
type Tracer struct {
	node      int32
	epoch     time.Time // monotonic base for Event.TS
	epochUnix int64     // wall-clock UnixNano of epoch, for cross-node alignment
	mask      uint64
	next      atomic.Uint64 // events ever emitted; written under mu

	mu    sync.Mutex // guards vc and slots
	vc    vclock.VC
	slots []Event
}

// New builds a tracer for node of an n-node cluster. capacity is the
// ring size (rounded up to a power of two; <= 0 selects
// DefaultCapacity).
func New(node int32, n, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Tracer{
		node:      node,
		epoch:     time.Now(),
		epochUnix: time.Now().UnixNano(),
		mask:      uint64(c - 1),
		slots:     make([]Event, c),
		vc:        vclock.New(n),
	}
}

// Node returns the tracer's node id, or -1 on a nil tracer.
func (t *Tracer) Node() int32 {
	if t == nil {
		return -1
	}
	return t.node
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Every emission is a local vector-clock tick
// on the node's component; the stamped clock therefore totally orders
// this node's own events and carries everything merged in through
// MergeClock. Nil-safe, allocation-free, and non-blocking: a full
// ring overwrites its oldest slot.
func (t *Tracer) Emit(typ Type, peer int32, req uint64, page, lock int32, arg uint64, dur time.Duration) {
	if t == nil {
		return
	}
	ts := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.vc.Tick(int(t.node))
	s := &t.slots[t.next.Load()&t.mask]
	*s = Event{
		TS:   ts,
		Dur:  int64(dur),
		Req:  req,
		Arg:  arg,
		Node: t.node,
		Peer: peer,
		Page: page,
		Lock: lock,
		Type: typ,
	}
	copy(s.VC[:], t.vc)
	t.next.Add(1)
	t.mu.Unlock()
}

// MergeClock folds a protocol-level vector clock (e.g. the clock a
// lock grant or barrier release carried under LRC) into the tracer's
// clock, so subsequent events causally dominate the merged-in state.
// Nil-safe and allocation-free.
func (t *Tracer) MergeClock(o vclock.VC) {
	if t == nil || len(o) == 0 {
		return
	}
	t.mu.Lock()
	t.vc.Merge(o)
	t.mu.Unlock()
}

// Clock returns a copy of the tracer's current vector clock (nil on a
// nil tracer).
func (t *Tracer) Clock() vclock.VC {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vc.Copy()
}

// Dropped reports how many events were overwritten before they could
// be read (ring overflow).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if c := uint64(len(t.slots)); n > c {
		return n - c
	}
	return 0
}

// Len reports the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if c := uint64(len(t.slots)); n > c {
		return int(c)
	}
	return int(n)
}

// Events returns the retained events, oldest first, copied under the
// emit lock: a consistent snapshot, never a torn event.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next.Load()
	start := uint64(0)
	if c := uint64(len(t.slots)); n > c {
		start = n - c
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, t.slots[i&t.mask])
	}
	return out
}

// Stream is one node's exported event sequence, the unit the merge
// and export layers consume. EpochUnixNs aligns timestamps across
// nodes (and across processes in TCP cluster mode, to wall-clock
// accuracy; causal order never depends on it).
type Stream struct {
	Node        int32   `json:"node"`
	EpochUnixNs int64   `json:"epoch_unix_ns"`
	Dropped     uint64  `json:"dropped"`
	Events      []Event `json:"events"`
}

// Stream snapshots the tracer as an exportable Stream. A nil tracer
// yields an empty stream with Node -1.
func (t *Tracer) Stream() Stream {
	if t == nil {
		return Stream{Node: -1}
	}
	return Stream{
		Node:        t.node,
		EpochUnixNs: t.epochUnix,
		Dropped:     t.Dropped(),
		Events:      t.Events(),
	}
}

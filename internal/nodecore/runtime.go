// Package nodecore implements the per-node runtime shared by every
// DSM protocol engine: message delivery, request/reply matching,
// the software-MMU access path with its fault loop, and
// small coordination utilities (tokens, per-page transaction locks).
// What the engines have in common is written here once: the one call
// path (Call, and CallBatched to ask several peers at once), the
// interval close (CloseWrites) and the static home map (HomeOf).
//
// Concurrency architecture (see DESIGN.md §4.2):
//
//   - No receive goroutine: Start attaches deliver to the endpoint and
//     the transport calls it (HandleInline says on which goroutine).
//     Replies are routed synchronously to the caller's registered slot,
//     which one loop (retryLoop) waits on for every call; a request kind
//     installed with Handle gets a goroutine per message, so a handler
//     that performs nested RPC (a manager forwarding, a home node
//     propagating) never holds up a delivery; a kind installed with
//     HandleInline (a pure state-machine step, like a lock manager's
//     queue/grant decision) runs on the delivering goroutine.
//   - A message a node addresses to itself never reaches the endpoint:
//     the sending goroutine delivers it (see xmit).
//   - Fault transactions hold a per-page latch (local accesses wait)
//     but not the page mutex, so remote invalidations stay servable.
//   - Engines serialize conflicting transactions per page at the
//     page's manager/owner using TxLocks, and end each data-granting
//     transaction only after the requester confirms installation
//     (token mechanism), which closes grant/invalidate reordering
//     races.
package nodecore

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Engine is a DSM consistency/coherence protocol engine. Exactly one
// engine is attached to each node's runtime. ReadFault and WriteFault
// are invoked on the faulting application goroutine with the page's
// fault latch held but the page mutex not held; the engine re-locks
// the page to install the result.
type Engine interface {
	// Name identifies the protocol in reports.
	Name() string
	// Register installs the engine's message handlers. Called once
	// before the runtime starts.
	Register(rt *Runtime)
	// Init sets initial page states (ownership, protection). Called
	// on every node after all runtimes are started, before the
	// application runs.
	Init()
	// ReadFault makes the page readable locally.
	ReadFault(page mem.PageID) error
	// WriteFault makes the page writable locally.
	WriteFault(page mem.PageID) error
}

// DirectEngine is implemented by engines that service some accesses
// remotely without installing a local mapping (the central-server
// algorithm class). A (true, err) return means the access was fully
// handled; (false, _) falls through to the paged fault path.
type DirectEngine interface {
	DirectRead(addr int64, buf []byte) (bool, error)
	DirectWrite(addr int64, buf []byte) (bool, error)
}

// Runtime is the per-node core shared by all engines.
type Runtime struct {
	id  transport.NodeID
	n   int
	ep  transport.Endpoint
	tbl *mem.Table
	st  *stats.Node

	engine    Engine
	direct    DirectEngine // non-nil iff engine implements DirectEngine
	collector *advisor.Collector
	// hooked is true iff collector, atrace or direct is set: something
	// must see every access, so the typed accessors' local-hit path
	// (access.go) is off. Kept by rehook from the three setters, all of
	// which run before Start.
	hooked   bool
	handlers []func(*wire.Msg)
	inline   []bool // kinds handled on the delivering goroutine itself (HandleInline)
	blocking []bool // kinds whose reply waits on other nodes (MarkBlocking)

	pendMu  sync.Mutex
	pending map[uint64]*pendingCall
	reqSeq  uint64

	callTimeout time.Duration
	done        chan struct{}
	closeOnce   sync.Once
	attached    sync.WaitGroup // from Start to the endpoint's down
	// closeMu orders close(done) against handlerWG.Add: self-sent
	// requests spawn handlers from any goroutine, so an Add could
	// otherwise start from zero while Close is already in Wait.
	closeMu   sync.Mutex
	handlerWG sync.WaitGroup

	// Reliability layer (inactive — and pay-for-what-you-use free —
	// unless EnableReliability was called).
	reliable bool
	retry    RetryPolicy
	retryMu  sync.Mutex     // guards retryRng and rtt
	retryRng uint64         // jitter stream, one seeded sequence per node
	rtt      []rttEstimator // per destination
	dedup    *dedupTable

	// Batching layer (inactive unless EnableBatching was called).
	batcher *batcher

	// tracer records protocol events when event tracing is enabled;
	// nil (the default) keeps every instrumented path at one
	// predictable branch and zero allocations.
	tracer *trace.Tracer

	// atrace, when non-nil (EnableAccessTrace), additionally records
	// every application read/write chunk as an EvRead/EvWrite event —
	// the input the race checker needs. Kept as a separate field so
	// event tracing without access tracing pays nothing on the
	// ReadAt/WriteAt hot path.
	atrace *trace.Tracer

	dispatched atomic.Int64 // messages delivered (off the endpoint or self-addressed)
}

// pendingCall is one outstanding request awaiting its reply, with
// enough metadata for the watchdog's in-flight dump.
type pendingCall struct {
	ch      chan *wire.Msg
	kind    wire.Kind
	to      transport.NodeID
	since   time.Time
	attempt atomic.Int32 // retransmissions so far (retryLoop)
}

// PendingCall describes one in-flight request, for diagnostics.
// Attempt counts retransmissions so far; RTO is the destination's
// current first-attempt reply wait (zero with reliability off and for
// tokens) — together they say whether a slow call is waiting on the
// network or on the peer.
type PendingCall struct {
	Req     uint64
	Kind    wire.Kind
	To      transport.NodeID
	Since   time.Time
	Attempt int
	RTO     time.Duration
}

// RetryPolicy tunes CallT's retransmission behaviour once
// EnableReliability is active. The first reply wait follows the
// destination's measured round trip (rtt.go): srtt + 4*rttvar with a
// margin, no shorter than 1ms and no longer than AttemptTimeout, and
// AttemptTimeout itself until the peer has answered a first
// transmission. The wait doubles per retry up to BackoffCap, with a
// deterministic +/-25% jitter; MaxAttempts bounds transmissions.
type RetryPolicy struct {
	MaxAttempts    int           // total transmissions per call (default 64)
	AttemptTimeout time.Duration // first reply wait before the peer's RTT is known, and its ceiling afterwards (default 50ms)
	BackoffCap     time.Duration // upper bound on per-attempt wait (default 1s)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 64
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 50 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = time.Second
	}
	return p
}

// New builds a runtime for node id of an n-node cluster.
func New(id transport.NodeID, n int, ep transport.Endpoint, tbl *mem.Table, st *stats.Node) *Runtime {
	ep.SetStats(st)
	return &Runtime{
		id:          id,
		n:           n,
		ep:          ep,
		tbl:         tbl,
		st:          st,
		handlers:    make([]func(*wire.Msg), wire.NumKinds()),
		inline:      make([]bool, wire.NumKinds()),
		blocking:    make([]bool, wire.NumKinds()),
		pending:     make(map[uint64]*pendingCall),
		callTimeout: 30 * time.Second,
		done:        make(chan struct{}),
	}
}

// EnableReliability turns on the at-least-once RPC machinery: CallT
// retransmits timed-out requests with capped exponential backoff and
// deterministic jitter, the receive side suppresses duplicate
// requests and re-serves cached replies (making retried requests
// idempotent), and token confirmations travel as acknowledged
// KConfirm requests instead of bare one-way acks. Must be called
// before Start. With reliability off, every path behaves — and
// counts messages — exactly as the fault-free substrate always has.
func (r *Runtime) EnableReliability(p RetryPolicy, seed int64) {
	if r.reliable {
		return
	}
	r.reliable = true
	r.retry = p.withDefaults()
	r.retryRng = uint64(seed)*0x9e3779b97f4a7c15 + uint64(r.id)*2654435761 + 1
	r.rtt = make([]rttEstimator, r.n)
	// A waiting caller retransmits at least every 1.25 BackoffCaps.
	r.dedup = newDedupTable(0, 8*r.retry.BackoffCap)
	r.Handle(wire.KConfirm, r.handleConfirm)
}

// Reliable reports whether the reliability layer is active.
func (r *Runtime) Reliable() bool { return r.reliable }

// handleConfirm serves a reliable token confirmation: release the
// local waiter (if still waiting) and acknowledge so the sender
// stops retransmitting. Idempotent by construction — a confirm for
// an already-released or timed-out token just acks.
func (r *Runtime) handleConfirm(m *wire.Msg) {
	tok := m.Arg
	if pc := r.takePending(tok); pc != nil {
		pc.ch <- &wire.Msg{Kind: wire.KAck, From: m.From, To: r.id, Req: tok}
	}
	_ = r.Ack(m)
}

// takePending removes and returns the reply slot of req, nil if there
// is none (the call completed or gave up, or never existed). A caller
// that gives up takes its own slot: a reply that still turns up is then
// late (see issued), not stray.
func (r *Runtime) takePending(req uint64) *pendingCall {
	r.pendMu.Lock()
	pc := r.pending[req]
	delete(r.pending, req)
	r.pendMu.Unlock()
	return pc
}

// ID returns this node's id.
func (r *Runtime) ID() transport.NodeID { return r.id }

// N returns the cluster size.
func (r *Runtime) N() int { return r.n }

// HomeOf is the cluster's one static placement map, id mod N: the home
// or manager of page id, the server or sequencer of page id, the manager
// of lock, barrier or event id.
func (r *Runtime) HomeOf(id int32) transport.NodeID { return id % int32(r.n) }

// Table returns the node's page table.
func (r *Runtime) Table() *mem.Table { return r.tbl }

// PageDiff is one page's stores of a closed write interval, encoded
// against the page's twin.
type PageDiff struct {
	Page mem.PageID
	Diff []byte
}

// CloseWrites ends the node's current write interval for the engines
// that diff against twins. It takes the table's written list — nothing
// else may — and for every page on it still dirty against its twin
// makes the current contents the new twin and returns the diff, in
// ascending page order: interval records, diff creation order and every
// grant payload follow it. A page stored back to its twin's contents
// yields no diff. Counts the diffs returned.
func (r *Runtime) CloseWrites() []PageDiff {
	var out []PageDiff
	for _, pg := range r.tbl.TakeWritten() {
		p := r.tbl.Page(pg)
		p.Lock()
		if diff, ok := p.UnflushedDiff(); ok {
			if len(diff) > 0 {
				out = append(out, PageDiff{pg, diff})
				r.st.DiffsCreated.Add(1)
				r.st.DiffBytes.Add(int64(len(diff)))
			}
			p.RefreshTwin()
		}
		p.Unlock()
	}
	return out
}

// Stats returns the node's counter set.
func (r *Runtime) Stats() *stats.Node { return r.st }

// SetCallTimeout overrides the default RPC timeout (30s).
func (r *Runtime) SetCallTimeout(d time.Duration) { r.callTimeout = d }

// SetAccessCollector attaches a sharing-pattern collector; every
// shared-memory access is then recorded per (page, node).
func (r *Runtime) SetAccessCollector(c *advisor.Collector) {
	r.collector = c
	r.rehook()
}

func (r *Runtime) rehook() {
	r.hooked = r.collector != nil || r.atrace != nil || r.direct != nil
}

// SetTracer attaches an event tracer. Must be called before Start.
func (r *Runtime) SetTracer(t *trace.Tracer) { r.tracer = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (r *Runtime) Tracer() *trace.Tracer { return r.tracer }

// EnableAccessTrace turns on per-access EvRead/EvWrite emission into
// the attached tracer. Must be called after SetTracer, before Start.
func (r *Runtime) EnableAccessTrace() {
	r.atrace = r.tracer
	r.rehook()
}

// emitMsg records an RPC event for m. Callers guard r.tracer != nil.
func (r *Runtime) emitMsg(typ trace.Type, peer int32, m *wire.Msg) {
	r.tracer.Emit(typ, peer, m.Req, m.Page, m.Lock, trace.MsgArg(uint8(m.Kind), m.Attempt), 0)
}

// SetEngine attaches the protocol engine and installs its handlers.
func (r *Runtime) SetEngine(e Engine) {
	r.engine = e
	r.direct, _ = e.(DirectEngine)
	r.rehook()
	e.Register(r)
}

// Engine returns the attached engine.
func (r *Runtime) Engine() Engine { return r.engine }

// Handle installs fn as the handler for request kind k. Each message
// of the kind gets its own goroutine, so fn may block: perform nested
// Calls, await tokens, take any lock.
func (r *Runtime) Handle(k wire.Kind, fn func(*wire.Msg)) {
	if k.IsReply() {
		panic(fmt.Sprintf("nodecore: Handle(%v): reply kinds are routed, not handled", k))
	}
	if r.handlers[k] != nil {
		panic(fmt.Sprintf("nodecore: Handle(%v): handler already installed", k))
	}
	r.handlers[k] = fn
}

// HandleInline installs fn like Handle but runs it to completion on
// the goroutine that delivers the message: the sender's own, inside its
// Send, for a self-addressed message and for a simulator message due
// now at an idle receiver; the simulator's queue goroutine for one that
// had to wait; tcp's delivery goroutine for a frame off a socket. fn
// may hold up a path replies to this node arrive through, so: it may
// Send, Forward and Reply; it must never Call, CallBatched or
// AwaitToken, nor take a mutex that any goroutine holds across one of
// those — nor across a transmission that can lead to fn, since fn may
// run on that goroutine. (A Call surfaces as its named timeout error
// where deliveries are serialised.) Handlers of one inline kind can
// run concurrently and must lock their own state.
func (r *Runtime) HandleInline(k wire.Kind, fn func(*wire.Msg)) {
	r.Handle(k, fn)
	r.inline[k] = true
}

// MarkBlocking marks kinds whose reply waits on other nodes' actions —
// a lock's holder, a barrier's last arrival, an event's setter. Calls
// of such a kind are timed by the destination's round-trip estimate
// but never train it: their reply time is queue wait, not network
// time. Where the handler runs is a separate choice (Handle or
// HandleInline): a lock request's handler only queues it and returns.
func (r *Runtime) MarkBlocking(kinds ...wire.Kind) {
	for _, k := range kinds {
		r.blocking[k] = true
	}
}

// Start attaches deliver to the endpoint.
func (r *Runtime) Start() {
	r.attached.Add(1)
	if err := r.ep.Attach(r.deliver, r.down); err != nil {
		panic(fmt.Sprintf("nodecore: node %d: %v", r.id, err))
	}
}

// down: the transport closed or lost a peer, so no reply can come now
// and every waiting call and token wait fails at once, by name.
func (r *Runtime) down() {
	r.closeOnce.Do(r.closeDone)
	r.attached.Done()
}

// Close cancels pending calls and waits for the endpoint's down (the
// transport must be closed first) and the handlers.
func (r *Runtime) Close() {
	r.closeOnce.Do(r.closeDone)
	if r.batcher != nil {
		r.batcher.stop()
	}
	r.attached.Wait()
	r.handlerWG.Wait()
}

func (r *Runtime) closeDone() {
	r.closeMu.Lock()
	close(r.done)
	r.closeMu.Unlock()
}

// deliver routes one message: replies to their waiting caller,
// requests (after duplicate suppression) to their handler. Batch
// members pass through here individually, so every reliability
// mechanism sees them exactly as it would lone messages.
func (r *Runtime) deliver(m *wire.Msg) {
	if m.Kind == wire.KBatch {
		members, err := wire.UnpackBatch(m.Data)
		if err != nil {
			// A malformed batch can only come from a broken or hostile
			// peer on a real transport; drop the frame rather than take
			// the node down.
			return
		}
		for _, mm := range members {
			r.deliver(mm)
		}
		return
	}
	r.dispatched.Add(1)
	if r.tracer != nil && m.From != r.id {
		r.emitMsg(trace.EvRecv, m.From, m)
	}
	if m.Kind.IsReply() {
		if pc := r.takePending(m.Req); pc != nil {
			pc.ch <- m // buffered, never blocks
		} else if r.issued(m.Req) {
			r.st.LateReplies.Add(1)
		} else {
			r.st.StrayReplies.Add(1)
		}
		return
	}
	if r.reliable && m.Req != 0 {
		if dup, state, fwd, cached := r.dedup.admit(m.From, m.Req, m.B); dup {
			r.st.DupRequests.Add(1)
			switch state {
			case dedupDone:
				// Transaction finished; re-serve the cached reply
				// (the original may have been lost).
				r.st.CachedReplies.Add(1)
				cp := *cached
				_ = r.Send(&cp)
			case dedupForwarded:
				// We relayed this request; re-send the recorded
				// relay copy and let its table take over.
				cp := *fwd
				if r.tracer != nil && cp.To != r.id {
					r.emitMsg(trace.EvSend, cp.To, &cp)
				}
				_ = r.xmit(&cp)
			}
			// Inflight: the first copy's handler will reply.
			return
		}
	}
	h := r.handlers[m.Kind]
	if h == nil {
		panic(fmt.Sprintf("nodecore: node %d: no handler for %v (engine %s)", r.id, m.Kind, r.engine.Name()))
	}
	if r.inline[m.Kind] {
		h(m)
		return
	}
	r.closeMu.Lock()
	select {
	case <-r.done:
		// Closing: the handler could only fail its sends and calls.
		r.closeMu.Unlock()
		return
	default:
	}
	r.handlerWG.Add(1)
	r.closeMu.Unlock()
	go func(m *wire.Msg) {
		defer r.handlerWG.Done()
		h(m)
	}(m)
}

// xmit is the one place a message leaves the runtime: for a peer, to
// the endpoint; for this node itself, into deliver on the calling
// goroutine — same reply routing, duplicate suppression and handler
// table as a message off the wire, and an inline handler has run when
// xmit returns. The receiver gets a private copy, the isolation the
// wire round trip gave: the sender may reuse m and its buffers, a
// handler may scribble on its own. Self traffic is neither counted nor
// traced, and a transport refuses it: this is the only self-delivery.
func (r *Runtime) xmit(m *wire.Msg) error {
	if m.To != r.id {
		return r.ep.Send(m)
	}
	select {
	case <-r.done:
		return fmt.Errorf("nodecore: node %d: %v to self after shutdown", r.id, m.Kind)
	default:
	}
	cp := *m
	cp.Data = bytes.Clone(m.Data)
	r.deliver(&cp)
	return nil
}

// UsefulDispatched counts the messages this node has delivered (off
// the endpoint or self-addressed) minus those that advanced nothing:
// retransmitted requests suppressed as duplicates and replies
// discarded as late. It is the watchdog's progress signal: a cluster
// stuck waiting on a dead or unreachable peer keeps retransmitting
// (and keeps suppressing those retransmits) forever — only subtracting
// them lets the watchdog see through that chatter to the stall.
func (r *Runtime) UsefulDispatched() int64 {
	return r.dispatched.Load() - r.st.DupRequests.Load() - r.st.LateReplies.Load()
}

// PendingCalls snapshots the in-flight requests (and awaited
// tokens), oldest first, for the watchdog's stall dump.
func (r *Runtime) PendingCalls() []PendingCall {
	r.pendMu.Lock()
	out := make([]PendingCall, 0, len(r.pending))
	for req, pc := range r.pending {
		out = append(out, PendingCall{Req: req, Kind: pc.kind, To: pc.to, Since: pc.since, Attempt: int(pc.attempt.Load())})
	}
	r.pendMu.Unlock()
	if rtts := r.PeerRTTs(); rtts != nil {
		for i := range out {
			if to := out[i].To; to >= 0 {
				out[i].RTO = rtts[to].RTO
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Since.Before(out[j].Since) })
	return out
}

// DumpPending renders the in-flight requests for diagnostics.
func (r *Runtime) DumpPending() string {
	calls := r.PendingCalls()
	if len(calls) == 0 {
		return fmt.Sprintf("node %d: no pending calls", r.id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "node %d: %d pending:", r.id, len(calls))
	for _, c := range calls {
		age := time.Since(c.Since).Round(time.Millisecond)
		switch {
		case c.To < 0:
			fmt.Fprintf(&b, " [token %x age=%v]", c.Req, age)
		case c.RTO > 0:
			fmt.Fprintf(&b, " [%v to %d req=%x age=%v attempt=%d rto=%v]", c.Kind, c.To, c.Req, age, c.Attempt, c.RTO.Round(time.Microsecond))
		default:
			fmt.Fprintf(&b, " [%v to %d req=%x age=%v]", c.Kind, c.To, c.Req, age)
		}
	}
	return b.String()
}

// NewReq allocates a globally unique request id: the node in the high
// bits, a per-node sequence number below.
func (r *Runtime) NewReq() uint64 {
	r.pendMu.Lock()
	r.reqSeq++
	id := uint64(r.id+1)<<reqSeqBits | r.reqSeq
	r.pendMu.Unlock()
	return id
}

const reqSeqBits = 40

// issued reports whether req is an id this node has handed out. A
// reply carrying such an id with no call waiting for it is late — its
// call completed or gave up, expected under retransmission — while
// any other unmatched reply is a stray, a protocol bug. Exact at any
// call rate and any lateness, with nothing to remember or evict.
func (r *Runtime) issued(req uint64) bool {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	return req>>reqSeqBits == uint64(r.id+1) && req&(1<<reqSeqBits-1) <= r.reqSeq
}

// register creates the reply slot for req.
func (r *Runtime) register(req uint64, kind wire.Kind, to transport.NodeID) *pendingCall {
	pc := &pendingCall{ch: make(chan *wire.Msg, 1), kind: kind, to: to, since: time.Now()}
	r.pendMu.Lock()
	r.pending[req] = pc
	r.pendMu.Unlock()
	return pc
}

// Send stamps the message with this node as origin and transmits it.
// Under reliability, outgoing replies are recorded in the dedup
// table so a retransmitted request can be answered from cache. With
// batching enabled, any messages queued for the same destination
// piggyback on this send's frame. A message addressed to this node
// itself is delivered before Send returns (see xmit).
func (r *Runtime) Send(m *wire.Msg) error {
	m.From = r.id
	if r.reliable && m.Req != 0 && m.Kind.IsReply() {
		// Deep-copy the payload: the cached reply may be re-served
		// long after the caller has reused or pooled its buffer.
		cp := *m
		cp.Data = append([]byte(nil), m.Data...)
		r.dedup.completed(m.To, m.Req, &cp)
	}
	if r.tracer != nil && m.To != r.id {
		// Emitted before the transmission so a zero-latency delivery
		// cannot timestamp the recv ahead of its send.
		r.emitMsg(trace.EvSend, m.To, m)
	}
	if r.batcher != nil && m.To != r.id {
		return r.batcher.sendWithPending(m)
	}
	return r.xmit(m)
}

// EnableBatching installs the message-batching layer (see batch.go):
// SendBatched queues one-way messages per destination, CallBatched
// groups same-destination requests into one frame, and FlushBatches
// drains the queues at release/barrier boundaries. Must be called
// before Start.
func (r *Runtime) EnableBatching() {
	if r.batcher == nil {
		r.batcher = newBatcher(r, batchMaxDelay)
	}
}

// BatchingEnabled reports whether the batching layer is active.
func (r *Runtime) BatchingEnabled() bool { return r.batcher != nil }

// SendBatched transmits a one-way message, allowing the runtime to
// delay it briefly (batchMaxDelay) so that it can share a
// frame with other traffic to the same destination. Without batching
// — or for self-sends — it degenerates to Send.
func (r *Runtime) SendBatched(m *wire.Msg) error {
	m.From = r.id
	if r.batcher == nil || m.To == r.id {
		return r.Send(m)
	}
	if r.tracer != nil {
		// The logical send happens now, even though the bytes may sit
		// in the batch queue until a flush or piggyback opportunity.
		r.emitMsg(trace.EvSend, m.To, m)
	}
	return r.batcher.enqueue(m)
}

// FlushBatches synchronously drains every pending batch queue.
// Engines call it at release and barrier boundaries so queued write
// notices and diff pushes are on the wire before the peers they are
// addressed to can observe the release.
func (r *Runtime) FlushBatches() {
	if r.batcher != nil {
		r.batcher.flushAll()
	}
}

// Forward retransmits m to a new destination, preserving the
// original From and Req so the eventual replier answers the origin
// directly. Used by manager relays and probable-owner chains. Under
// reliability the relay is recorded so a duplicate of the original
// request is re-relayed instead of dropped. Forwarding to this node
// itself delivers on the calling goroutine, like Send.
func (r *Runtime) Forward(m *wire.Msg, to transport.NodeID) error {
	fwd := *m
	fwd.To = to
	if r.reliable && m.Req != 0 && !m.Kind.IsReply() {
		cp := fwd
		r.dedup.forwarded(m.From, m.Req, &cp, r.blocking[m.Kind])
	}
	r.st.Forwards.Add(1)
	if r.tracer != nil && fwd.To != r.id {
		r.emitMsg(trace.EvSend, fwd.To, &fwd)
	}
	return r.xmit(&fwd)
}

// Call sends a request and waits for its reply (or timeout/shutdown).
func (r *Runtime) Call(m *wire.Msg) (*wire.Msg, error) {
	return r.CallT(m, r.callTimeout)
}

// CallT is Call with an explicit overall timeout. Every request/reply
// exchange — a Call, each member of a CallBatched, reliability on or
// off — is a registered reply slot waited on by retryLoop.
func (r *Runtime) CallT(m *wire.Msg, timeout time.Duration) (*wire.Msg, error) {
	m.Req = r.NewReq()
	return r.retryLoop(m, r.register(m.Req, m.Kind, m.To), timeout, false)
}

// CallBatched is the fan-out: it issues several requests at once and
// waits for every one of them. replies[i] answers msgs[i] and is nil
// where that member failed — each failure abandoned exactly as a
// timed-out Call would be — and err is the first failure in input
// order. Members wait on a goroutine each, the last on the caller's; a
// lone member is a plain Call. With batching enabled, requests that
// share a destination travel in one KBatch frame — their first
// transmission only; under reliability each member retransmits on its
// own, since loss and duplication are per member once the frame is
// unpacked.
func (r *Runtime) CallBatched(msgs []*wire.Msg) ([]*wire.Msg, error) {
	switch len(msgs) {
	case 0:
		return nil, nil
	case 1:
		reply, err := r.Call(msgs[0])
		return []*wire.Msg{reply}, err
	}
	pcs := make([]*pendingCall, len(msgs))
	for i, m := range msgs {
		m.From = r.id
		m.Attempt = 0
		m.Req = r.NewReq()
		pcs[i] = r.register(m.Req, m.Kind, m.To)
	}
	// First transmission: group remote same-destination requests into
	// one frame each. Reply slots are already registered, so a reply
	// can never race its own registration.
	preSent := make([]bool, len(msgs))
	if b := r.batcher; b != nil {
		byDest := make(map[transport.NodeID][]int)
		for i, m := range msgs {
			if m.To != r.id {
				byDest[m.To] = append(byDest[m.To], i)
			}
		}
		for to, idxs := range byDest {
			if len(idxs) < 2 {
				continue
			}
			members := make([]*wire.Msg, len(idxs))
			for j, i := range idxs {
				members[j] = msgs[i]
				if r.tracer != nil {
					// Before the frame goes out, as everywhere; the rare
					// frame error re-sends (and re-traces) individually.
					r.emitMsg(trace.EvSend, to, msgs[i])
				}
			}
			if err := b.sendBatchFrame(to, members); err == nil {
				for _, i := range idxs {
					preSent[i] = true
				}
			}
			// On error the members go out individually below.
		}
	}
	replies := make([]*wire.Msg, len(msgs))
	errs := make([]error, len(msgs))
	var wg sync.WaitGroup
	wait := func(i int) {
		defer wg.Done()
		replies[i], errs[i] = r.retryLoop(msgs[i], pcs[i], r.callTimeout, preSent[i])
	}
	wg.Add(len(msgs))
	for i := 0; i < len(msgs)-1; i++ {
		go wait(i)
	}
	wait(len(msgs) - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return replies, err
		}
	}
	return replies, nil
}

// retryLoop is the one reply wait: transmit, wait, retransmit, until
// the already-registered call is answered, its overall deadline runs
// out or the runtime shuts down. Every transmission shares the request
// id, which is what lets the receiver deduplicate. MaxAttempts bounds
// transmissions, not the wait: the last one waits out the remaining
// deadline (locks, barriers and events legitimately reply much later
// than any loss-recovery window, and their retransmits are cheaply
// suppressed as duplicates in the meantime). Without reliability a call
// is exactly that last attempt, and touches neither the estimator nor
// the jitter stream.
//
// With preSent, the first transmission already happened (as a member of
// a batch frame) and the loop starts by waiting. A reply that is
// already there (always, for a self-addressed call) costs no clock read
// and no timer. Otherwise the first wait is the destination's
// retransmission timeout (rtt.go), and a reply to the first
// transmission is its estimator's next sample — a reply after a
// retransmission is not (Karn's rule: it could answer either copy), nor
// is the reply to a blocking kind (queue wait, not network time). One
// timer serves every attempt; it needs no draining because the loop
// only comes around after it has fired.
func (r *Runtime) retryLoop(m *wire.Msg, pc *pendingCall, timeout time.Duration, preSent bool) (*wire.Msg, error) {
	maxAttempts := 1
	if r.reliable {
		maxAttempts = r.retry.MaxAttempts
	}
	deadline := pc.since.Add(timeout)
	var wait time.Duration
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// The deadline may have expired while the previous
			// attempt's timer ran; give up here rather than pay for
			// one more pointless retransmission and timer cycle.
			if !time.Now().Before(deadline) {
				return nil, r.giveUp(m, timeout, attempt)
			}
			r.st.Retries.Add(1)
			pc.attempt.Store(int32(attempt))
		}
		m.Attempt = uint8(min(attempt, 255))
		if attempt > 0 && r.tracer != nil {
			r.emitMsg(trace.EvRetry, m.To, m)
		}
		if attempt > 0 || !preSent {
			if err := r.Send(m); err != nil {
				r.takePending(m.Req)
				return nil, err
			}
		}
		select {
		case reply := <-pc.ch:
			r.answered(m, attempt, pc.since)
			return reply, nil
		default:
		}
		w := time.Until(deadline) // the last transmission waits out the rest
		if attempt+1 < maxAttempts {
			var aw time.Duration
			wait, aw = r.attemptWait(m, attempt, wait)
			w = min(w, aw)
		}
		w = max(w, rtoFloor)
		if timer == nil {
			timer = time.NewTimer(w)
		} else {
			timer.Reset(w)
		}
		reply, down := r.await(pc.ch, timer)
		if reply != nil {
			r.answered(m, attempt, pc.since)
			return reply, nil
		}
		if down {
			r.takePending(m.Req)
			return nil, fmt.Errorf("nodecore: node %d: shutdown while waiting for %v reply", r.id, m.Kind)
		}
		if attempt+1 >= maxAttempts {
			return nil, r.giveUp(m, timeout, attempt+1)
		}
	}
}

// await blocks on a reply slot until its message arrives, the timer
// fires (nil, false) or the runtime shuts down (nil, true).
func (r *Runtime) await(ch chan *wire.Msg, timer *time.Timer) (reply *wire.Msg, down bool) {
	select {
	case reply := <-ch:
		return reply, false
	case <-timer.C:
		return nil, false
	case <-r.done:
		return nil, true
	}
}

// attemptWait returns the base reply wait of this attempt and the
// wait to sleep: the base with the node's deterministic +/-25% jitter,
// which desynchronizes retry storms. Attempt 0 takes its base from the
// destination's estimator; later attempts double the previous one up
// to BackoffCap and leave it with the estimator for the next call —
// unless the kind is blocking, whose timeouts say nothing about the
// network. One critical section covers the estimator and the jitter
// stream.
func (r *Runtime) attemptWait(m *wire.Msg, attempt int, prev time.Duration) (base, w time.Duration) {
	r.retryMu.Lock()
	defer r.retryMu.Unlock()
	e := &r.rtt[m.To]
	if attempt == 0 {
		base = e.rto(r.retry.AttemptTimeout)
	} else {
		base = min(2*prev, r.retry.BackoffCap)
		if !r.blocking[m.Kind] {
			e.backed = max(e.backed, base)
		}
	}
	jit := time.Duration(xorshift64(&r.retryRng) % uint64(base/2+1))
	return base, base - base/4 + jit
}

// answered records a completed call: its latency, and — if the reply
// qualifies (see retryLoop) — its round trip as the destination's next
// estimator sample.
func (r *Runtime) answered(m *wire.Msg, attempt int, start time.Time) {
	if r.st.Lat != nil {
		r.st.Lat.RPC.Observe(time.Since(start).Nanoseconds())
	}
	if r.reliable && attempt == 0 && !r.blocking[m.Kind] {
		r.observeRTT(m.To, time.Since(start))
	}
}

// observeRTT feeds one first-transmission round trip to the
// destination's estimator.
func (r *Runtime) observeRTT(to transport.NodeID, rtt time.Duration) {
	r.retryMu.Lock()
	r.rtt[to].sample(rtt)
	r.retryMu.Unlock()
}

// giveUp abandons a call whose deadline or attempts ran out.
func (r *Runtime) giveUp(m *wire.Msg, timeout time.Duration, attempts int) error {
	r.takePending(m.Req)
	return fmt.Errorf("nodecore: node %d: %v to %d (page %d, lock %d) timed out after %v (attempts: %d)",
		r.id, m.Kind, m.To, m.Page, m.Lock, timeout, attempts)
}

func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// Reply answers a request: it copies the request id and addresses the
// originator.
func (r *Runtime) Reply(req *wire.Msg, reply *wire.Msg) error {
	if !reply.Kind.IsReply() {
		panic(fmt.Sprintf("nodecore: Reply with non-reply kind %v", reply.Kind))
	}
	reply.To = req.From
	reply.Req = req.Req
	return r.Send(reply)
}

// Ack sends a bare KAck reply to a request.
func (r *Runtime) Ack(req *wire.Msg) error {
	return r.Reply(req, &wire.Msg{Kind: wire.KAck})
}

// NewToken allocates a wait token: the local side blocks in
// AwaitToken until a remote side releases it with ReleaseToken, which
// sends a KAck carrying the token as Req (a KConfirm request under
// reliability). Tokens implement the requester-confirmation step that
// ends page transactions.
func (r *Runtime) NewToken() (uint64, chan *wire.Msg) {
	tok := r.NewReq()
	return tok, r.register(tok, wire.KAck, -1).ch
}

// AwaitToken blocks until the token is released or timeout.
func (r *Runtime) AwaitToken(tok uint64, ch chan *wire.Msg, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	released, down := r.await(ch, timer)
	if released != nil {
		return nil
	}
	r.takePending(tok)
	if down {
		return fmt.Errorf("nodecore: node %d: shutdown while awaiting token", r.id)
	}
	return fmt.Errorf("nodecore: node %d: token %x confirmation timed out after %v", r.id, tok, timeout)
}

// ReleaseToken notifies a remote waiter. Fault-free mode sends a
// bare one-way ack addressed by token — losing it would strand the
// waiter's transaction, so reliable mode upgrades the notification
// to a retried KConfirm request, acknowledged by the waiter's
// runtime (handleConfirm) once the token is delivered.
func (r *Runtime) ReleaseToken(to transport.NodeID, tok uint64) error {
	if r.reliable {
		_, err := r.Call(&wire.Msg{Kind: wire.KConfirm, To: to, Arg: tok})
		return err
	}
	return r.Send(&wire.Msg{Kind: wire.KAck, To: to, Req: tok})
}

// CallTimeout returns the configured RPC timeout.
func (r *Runtime) CallTimeout() time.Duration { return r.callTimeout }

// Done returns a channel closed at shutdown.
func (r *Runtime) Done() <-chan struct{} { return r.done }

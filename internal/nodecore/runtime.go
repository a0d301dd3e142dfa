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
//     which one wait (waitReply) serves for every call; a request kind
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
	ch    chan *wire.Msg
	kind  wire.Kind
	to    transport.NodeID
	since time.Time
}

// PendingCall describes one in-flight request, for diagnostics.
type PendingCall struct {
	Req   uint64
	Kind  wire.Kind
	To    transport.NodeID
	Since time.Time
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
		pending:     make(map[uint64]*pendingCall),
		callTimeout: 30 * time.Second,
		done:        make(chan struct{}),
	}
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
	r.tracer.Emit(typ, peer, m.Req, m.Page, m.Lock, trace.MsgArg(uint8(m.Kind)), 0)
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
// requests to their handler. Batch members pass through here
// individually, exactly as lone messages would.
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
// goroutine — same reply routing and handler table as a message off
// the wire, and an inline handler has run when
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

// Dispatched counts the messages this node has delivered (off the
// endpoint or self-addressed): the watchdog's progress signal. What a
// link does to recover a frame never reaches the runtime, so a cluster
// stuck on an unreachable peer stops this count however loud its links
// are.
func (r *Runtime) Dispatched() int64 { return r.dispatched.Load() }

// PendingCalls snapshots the in-flight requests (and awaited
// tokens), oldest first, for the watchdog's stall dump.
func (r *Runtime) PendingCalls() []PendingCall {
	r.pendMu.Lock()
	out := make([]PendingCall, 0, len(r.pending))
	for req, pc := range r.pending {
		out = append(out, PendingCall{Req: req, Kind: pc.kind, To: pc.to, Since: pc.since})
	}
	r.pendMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Since.Before(out[j].Since) })
	return out
}

// DumpPending renders the in-flight requests for diagnostics and, on
// an endpoint with links, one line per link the requests wait on: its
// unacknowledged frames say whether a call waits on the network or,
// with none, on the peer.
func (r *Runtime) DumpPending() string {
	calls := r.PendingCalls()
	if len(calls) == 0 {
		return fmt.Sprintf("node %d: no pending calls", r.id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "node %d: %d pending:", r.id, len(calls))
	links := make(map[transport.NodeID]bool)
	for _, c := range calls {
		age := time.Since(c.Since).Round(time.Millisecond)
		if c.To < 0 {
			fmt.Fprintf(&b, " [token %x age=%v]", c.Req, age)
			continue
		}
		fmt.Fprintf(&b, " [%v to %d req=%x age=%v]", c.Kind, c.To, c.Req, age)
		links[c.To] = true
	}
	if lr, ok := r.ep.(interface{ LinkReport(transport.NodeID) string }); ok {
		for to := transport.NodeID(0); int(to) < r.n; to++ {
			if line := lr.LinkReport(to); links[to] && line != "" {
				fmt.Fprintf(&b, "\n    %s", line)
			}
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
// call gave up before the reply came — while
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
// With batching enabled, any messages queued for the same destination
// piggyback on this send's frame. A message addressed to this node
// itself is delivered before Send returns (see xmit).
func (r *Runtime) Send(m *wire.Msg) error {
	m.From = r.id
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

// Forward sends m on to a new destination, preserving the
// original From and Req so the eventual replier answers the origin
// directly. Used by manager relays and probable-owner chains.
// Forwarding to this node itself delivers on the calling goroutine,
// like Send.
func (r *Runtime) Forward(m *wire.Msg, to transport.NodeID) error {
	fwd := *m
	fwd.To = to
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
// exchange — a Call, each member of a CallBatched — is a registered
// reply slot, one transmission and one waitReply.
func (r *Runtime) CallT(m *wire.Msg, timeout time.Duration) (*wire.Msg, error) {
	m.Req = r.NewReq()
	pc := r.register(m.Req, m.Kind, m.To)
	if err := r.Send(m); err != nil {
		r.takePending(m.Req)
		return nil, err
	}
	return r.waitReply(m, pc, timeout)
}

// CallBatched is the fan-out: it issues several requests at once and
// waits for every one of them. replies[i] answers msgs[i] and is nil
// where that member failed — each failure abandoned exactly as a
// timed-out Call would be — and err is the first failure in input
// order. Each member is sent and waited for on a goroutine of its own,
// the last on the caller's; a lone member is a plain Call. With
// batching enabled, requests that share a destination travel in one
// KBatch frame.
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
	call := func(i int) {
		defer wg.Done()
		if !preSent[i] {
			if errs[i] = r.Send(msgs[i]); errs[i] != nil {
				r.takePending(msgs[i].Req)
				return
			}
		}
		replies[i], errs[i] = r.waitReply(msgs[i], pcs[i], r.callTimeout)
	}
	wg.Add(len(msgs))
	for i := 0; i < len(msgs)-1; i++ {
		go call(i)
	}
	call(len(msgs) - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return replies, err
		}
	}
	return replies, nil
}

// waitReply is the one reply wait: until the already-registered and
// transmitted call is answered, its overall deadline runs out or the
// runtime shuts down. The network below delivers what it accepted once,
// or goes down, so there is nothing to re-send. A reply that is already
// there (always, for a self-addressed call) costs no clock read and no
// timer.
func (r *Runtime) waitReply(m *wire.Msg, pc *pendingCall, timeout time.Duration) (*wire.Msg, error) {
	select {
	case reply := <-pc.ch:
		r.answered(pc.since)
		return reply, nil
	default:
	}
	timer := time.NewTimer(max(time.Until(pc.since.Add(timeout)), 0))
	defer timer.Stop()
	reply, down := r.await(pc.ch, timer)
	if reply != nil {
		r.answered(pc.since)
		return reply, nil
	}
	r.takePending(m.Req)
	if down {
		return nil, fmt.Errorf("nodecore: node %d: shutdown while waiting for %v reply", r.id, m.Kind)
	}
	return nil, fmt.Errorf("nodecore: node %d: %v to %d (page %d, lock %d) timed out after %v",
		r.id, m.Kind, m.To, m.Page, m.Lock, timeout)
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

// answered records a completed call's latency.
func (r *Runtime) answered(start time.Time) {
	if r.st.Lat != nil {
		r.st.Lat.RPC.Observe(time.Since(start).Nanoseconds())
	}
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
// sends a KAck carrying the token as Req. Tokens implement the
// requester-confirmation step that ends page transactions.
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

// ReleaseToken notifies a remote waiter with a bare one-way ack
// addressed by token.
func (r *Runtime) ReleaseToken(to transport.NodeID, tok uint64) error {
	return r.Send(&wire.Msg{Kind: wire.KAck, To: to, Req: tok})
}

// CallTimeout returns the configured RPC timeout.
func (r *Runtime) CallTimeout() time.Duration { return r.callTimeout }

// Done returns a channel closed at shutdown.
func (r *Runtime) Done() <-chan struct{} { return r.done }

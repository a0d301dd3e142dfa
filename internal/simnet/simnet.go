// Package simnet provides the simulated message-passing substrate
// connecting DSM nodes: an in-process network of point-to-point links
// with per-pair FIFO delivery (like TCP connections between
// workstations), configurable latency and bandwidth cost, optional
// delivery jitter for stress testing, and traffic accounting. Every
// message crosses the wire encoding even though delivery is
// in-process, so message and byte counts are faithful to a real
// deployment. A message due at once at an idle receiver is decoded and
// delivered on the sender's goroutine (dqueue.push), so the receiver's
// inline handlers run there; the receiver's delivery-queue goroutine is
// for messages that must wait — for latency, jitter, a spike, a stall
// or an earlier message. Under a fault plan every pair runs a
// retransmitting link beneath the injector (link.go), so the nodes see
// each message once and in order, as over TCP. Net implements
// transport.Transport, making the simulator one backend among several
// (see internal/transport and internal/transport/tcp); it remains the
// default and the only backend with latency/fault modeling.
package simnet

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeID identifies a node on the network (an alias of
// transport.NodeID; both are int32).
type NodeID = transport.NodeID

// Latency computes the delivery delay for a message of the given
// encoded size from one node to another. Links are full-duplex and
// pipelined: messages overlap in flight, but arrive in FIFO order
// per (from, to) pair.
type Latency func(from, to NodeID, bytes int) time.Duration

// ConstLatency returns a model with a fixed per-message latency plus
// a per-byte cost (bandwidth). Either may be zero.
func ConstLatency(perMsg time.Duration, perByte time.Duration) Latency {
	if perMsg == 0 && perByte == 0 {
		return nil
	}
	return func(_, _ NodeID, bytes int) time.Duration {
		return perMsg + time.Duration(bytes)*perByte
	}
}

// Config configures a network.
type Config struct {
	Nodes int
	// Latency model; nil means zero-latency (still FIFO per pair).
	Latency Latency
	// Jitter adds a uniformly random extra delay in [0, Jitter) per
	// message, deterministically derived from Seed. Jitter preserves
	// per-pair FIFO order (delays only ever push delivery later).
	Jitter time.Duration
	Seed   int64
	// Faults, if non-nil, enables probabilistic fault injection on
	// every directed pair: frame drops, duplication, and latency
	// spikes, all deterministically derived from Seed. Transient
	// partitions and endpoint stalls are injected at runtime with
	// Net.Partition and Net.StallNode. Every pair then runs the link
	// (link.go), which recovers what the injector does to its frames.
	// The acks that complete a node's sends arrive with its deliveries,
	// so a sending endpoint must be attached too.
	Faults *FaultPlan
}

// FaultPlan describes the probabilistic faults applied to each
// directed node pair. Probabilities are per message, in [0, 1].
type FaultPlan struct {
	// DropProb is the probability a message is silently discarded.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// SpikeProb is the probability a message's delivery is delayed by
	// an extra Spike (a latency spike); Spike must be >= 0.
	SpikeProb float64
	Spike     time.Duration
}

// Validate reports whether the plan's parameters are in range.
func (fp *FaultPlan) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("simnet: FaultPlan.%s = %v out of range [0, 1]", name, p)
		}
		return nil
	}
	if err := check("DropProb", fp.DropProb); err != nil {
		return err
	}
	if err := check("DupProb", fp.DupProb); err != nil {
		return err
	}
	if err := check("SpikeProb", fp.SpikeProb); err != nil {
		return err
	}
	if fp.Spike < 0 {
		return fmt.Errorf("simnet: FaultPlan.Spike = %v is negative", fp.Spike)
	}
	return nil
}

// Validate rejects configurations that would silently misbehave.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("simnet: need at least 1 node, got %d", c.Nodes)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("simnet: Config.Jitter = %v is negative", c.Jitter)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Net is the simulated network. It implements transport.Transport.
type Net struct {
	cfg    Config
	eps    []*Endpoint
	queues []*dqueue
	pairs  [][]pairState

	closeOnce sync.Once
	closed    chan struct{}
}

type pairState struct {
	mu           sync.Mutex
	last         time.Time
	rng          uint64    // xorshift state for jitter and fault draws
	blockedUntil time.Time // transient partition: drop until this instant
	lk           *link     // the pair's link; nil without a fault plan
}

// New builds a network with n fully connected nodes.
func New(cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	net := &Net{
		cfg:    cfg,
		eps:    make([]*Endpoint, n),
		queues: make([]*dqueue, n),
		pairs:  make([][]pairState, n),
		closed: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		net.pairs[i] = make([]pairState, n)
		for j := 0; j < n; j++ {
			// Distinct non-zero xorshift seeds per directed pair.
			net.pairs[i][j].rng = uint64(cfg.Seed)*2654435761 + uint64(i*n+j)*0x9e3779b97f4a7c15 + 1
		}
	}
	if cfg.Faults != nil {
		newLinks(net)
	}
	for i := 0; i < n; i++ {
		ep := &Endpoint{net: net, id: NodeID(i), st: &stats.Node{}}
		net.eps[i] = ep
		q := newDQueue(ep)
		net.queues[i] = q
		go q.run()
	}
	return net, nil
}

// Endpoint returns node id's endpoint (all nodes are local to the
// simulator). It implements transport.Transport.
func (n *Net) Endpoint(id NodeID) transport.Endpoint {
	return n.eps[id]
}

// Nodes returns the node count.
func (n *Net) Nodes() int { return n.cfg.Nodes }

// Name implements transport.Transport.
func (n *Net) Name() string { return "sim" }

// Partition severs the link between a and b in both directions for
// d: messages on the pair are dropped until the partition heals at
// the pair's blockedUntil. Overlapping partitions extend each other
// (the later heal time wins). Both ends count the partition. Invalid
// node ids and non-positive durations are no-ops.
func (n *Net) Partition(a, b NodeID, d time.Duration) {
	if a < 0 || b < 0 || int(a) >= n.cfg.Nodes || int(b) >= n.cfg.Nodes || a == b || d <= 0 {
		return
	}
	until := time.Now().Add(d)
	for _, pair := range []*pairState{&n.pairs[a][b], &n.pairs[b][a]} {
		pair.mu.Lock()
		if until.After(pair.blockedUntil) {
			pair.blockedUntil = until
		}
		pair.mu.Unlock()
	}
	n.eps[a].st.Partitions.Add(1)
	n.eps[b].st.Partitions.Add(1)
	n.eps[a].tr.Emit(trace.EvChaos, int32(b), 0, -1, -1, trace.ChaosPartition, d)
	n.eps[b].tr.Emit(trace.EvChaos, int32(a), 0, -1, -1, trace.ChaosPartition, d)
}

// StallNode freezes node id's receive processing for d: messages
// addressed to it queue up and are delivered only after the stall
// ends, modelling a paused or overloaded endpoint. Overlapping
// stalls extend each other.
func (n *Net) StallNode(id NodeID, d time.Duration) {
	if id < 0 || int(id) >= n.cfg.Nodes || d <= 0 {
		return
	}
	n.queues[id].stall(time.Now().Add(d))
	n.eps[id].st.Stalls.Add(1)
	n.eps[id].tr.Emit(trace.EvChaos, -1, 0, -1, -1, trace.ChaosStall, d)
}

// Close shuts the network down. Messages still in flight are
// discarded; subsequent sends are dropped, and the links stop
// retransmitting. Each endpoint's down runs once its deliveries in
// progress have returned.
func (n *Net) Close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		for _, q := range n.queues {
			q.stop()
		}
		for i := range n.pairs {
			for j := range n.pairs[i] {
				if l := n.pairs[i][j].lk; l != nil {
					l.mu.Lock()
					if l.timer != nil {
						l.timer.Stop()
					}
					l.mu.Unlock()
				}
			}
		}
	})
}

func (n *Net) isClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	net *Net
	id  NodeID
	st  *stats.Node
	tr  *trace.Tracer

	recvOnce sync.Once
	recv     <-chan *wire.Msg
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// SetStats implements transport.Endpoint: st replaces the counter set
// the endpoint was built with.
func (e *Endpoint) SetStats(st *stats.Node) { e.st = st }

// SetTracer attaches an event tracer so the injections this endpoint
// experiences (drops, duplicates, spikes, partitions, stalls) appear
// in its node's trace stream. Nil (the default) records nothing.
func (e *Endpoint) SetTracer(t *trace.Tracer) { e.tr = t }

// Recv implements transport.Endpoint with transport.Pull.
func (e *Endpoint) Recv() <-chan *wire.Msg {
	e.recvOnce.Do(func() { e.recv = transport.Pull(e.Attach, e.net.closed) })
	return e.recv
}

// Send transmits m to m.To. The From field is stamped with the
// sending endpoint unless the caller preserved an origin while
// forwarding (From already set to a valid node and Kind unchanged) —
// senders that forward set From deliberately. A message to the
// endpoint's own node is refused: there is no self-delivery.
func (e *Endpoint) Send(m *wire.Msg) error {
	if e.net.isClosed() {
		return fmt.Errorf("simnet: network closed")
	}
	to := m.To
	if to < 0 || int(to) >= e.net.cfg.Nodes {
		return fmt.Errorf("simnet: send to invalid node %d (cluster of %d)", to, e.net.cfg.Nodes)
	}
	if to == e.id {
		return fmt.Errorf("simnet: node %d: send to itself", to)
	}
	// Encode into a pooled buffer; ownership passes to the link, or to
	// the delivery queue, which returns it after decoding (Decode copies
	// payloads).
	bp := wire.GetBuf()
	*bp = m.Encode(*bp)
	e.st.MsgsSent.Add(1)
	e.st.BytesSent.Add(int64(len(*bp)))
	if lk := e.net.pairs[e.id][to].lk; lk != nil {
		lk.send(bp)
	} else {
		e.inject(to, bp)
	}
	return nil
}

// inject puts one frame (bp, pooled) on the wire to node to: the
// partition, latency, jitter and fault plan decide when it arrives, if
// at all, and whether twice.
func (e *Endpoint) inject(to NodeID, bp *[]byte) {
	raw := *bp
	duplicate := false
	pair := &e.net.pairs[e.id][to]
	pair.mu.Lock()
	now := time.Now()
	if !pair.blockedUntil.IsZero() && now.Before(pair.blockedUntil) {
		// Transient partition: the link is down in this direction.
		pair.mu.Unlock()
		e.drop(to, bp)
		return
	}
	delay := time.Duration(0)
	if lat := e.net.cfg.Latency; lat != nil {
		delay += lat(e.id, to, len(raw))
	}
	if j := e.net.cfg.Jitter; j > 0 {
		delay += time.Duration(xorshift(&pair.rng) % uint64(j))
	}
	if fp := e.net.cfg.Faults; fp != nil {
		if fp.DropProb > 0 && probDraw(&pair.rng) < fp.DropProb {
			pair.mu.Unlock()
			e.drop(to, bp)
			return
		}
		if fp.SpikeProb > 0 && probDraw(&pair.rng) < fp.SpikeProb {
			delay += fp.Spike
			e.st.MsgsSpiked.Add(1)
			e.tr.Emit(trace.EvChaos, int32(to), 0, -1, -1, trace.ChaosSpike, fp.Spike)
		}
		if fp.DupProb > 0 && probDraw(&pair.rng) < fp.DupProb {
			duplicate = true
		}
	}
	at := now.Add(delay)
	if at.Before(pair.last) {
		at = pair.last
	}
	pair.last = at
	pair.mu.Unlock()

	// The duplicate must be copied before the original is pushed: once
	// pushed, the delivery queue may decode and recycle the buffer at
	// any moment.
	var dupBp *[]byte
	if duplicate {
		dupBp = wire.GetBuf()
		*dupBp = append(*dupBp, raw...)
	}
	e.net.queues[to].push(now, at, e.id, raw, bp)
	if duplicate {
		// The copy arrives immediately after the original (same due
		// time, later heap sequence), preserving per-pair FIFO order.
		e.st.MsgsDuplicated.Add(1)
		e.tr.Emit(trace.EvChaos, int32(to), 0, -1, -1, trace.ChaosDup, 0)
		e.net.queues[to].push(now, at, e.id, *dupBp, dupBp)
	}
}

// drop discards a frame to node to that a partition or the drop
// probability claimed, counting and tracing it.
func (e *Endpoint) drop(to NodeID, bp *[]byte) {
	e.st.MsgsDropped.Add(1)
	e.tr.Emit(trace.EvChaos, int32(to), 0, -1, -1, trace.ChaosDrop, 0)
	wire.PutBuf(bp)
}

// probDraw converts one xorshift step into a uniform float in [0, 1).
func probDraw(s *uint64) float64 {
	return float64(xorshift(s)>>11) / float64(1<<53)
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// dqueue is a per-receiver delivery queue: a time-ordered heap
// drained by one goroutine that waits until each message is due,
// decodes it, and delivers it. Messages with nothing to wait for
// bypass both (push).
type dqueue struct {
	ep *Endpoint
	// wake interrupts run's wait when the heap gets a new head, the
	// endpoint is attached or the queue stops. Capacity one: a pending
	// wake-up says "look again".
	wake chan struct{}

	mu         sync.Mutex
	items      itemHeap
	seq        uint64
	deliver    func(*wire.Msg) // nil until Attach
	down       func()
	stopped    atomic.Bool   // set under mu
	exited     bool          // run has returned
	delivering bool          // run is inside deliver
	direct     uint64        // deliveries begun on senders' goroutines...
	directDone atomic.Uint64 // ...and ended: both equal when none is in progress
	stallUntil time.Time     // endpoint stall: nothing delivers before this instant
}

type item struct {
	at   time.Time
	seq  uint64
	from NodeID
	raw  []byte
	buf  *[]byte // pooled backing buffer, returned after decode
}

func newDQueue(ep *Endpoint) *dqueue {
	return &dqueue{ep: ep, wake: make(chan struct{}, 1)}
}

// push queues a frame from node from, sent at now and due at at. If
// nothing stands between it and the receiver — it is attached and not
// stalled, the message is due, none is queued or in run's hands — the sender
// delivers it, after releasing q.mu so a delivery chain may push here
// again. A queued or running message sends later ones to the queue, so
// deliveries on a pair start in send order; the queue never blocks.
func (q *dqueue) push(now, at time.Time, from NodeID, raw []byte, buf *[]byte) {
	it := item{at: at, from: from, raw: raw, buf: buf}
	q.mu.Lock()
	if q.stopped.Load() {
		q.mu.Unlock()
		wire.PutBuf(buf)
		return
	}
	if deliver := q.deliver; deliver != nil && len(q.items) == 0 && !q.delivering &&
		!at.After(now) && !now.Before(q.stallUntil) {
		q.direct++
		q.mu.Unlock()
		if m := q.receive(it); m != nil {
			deliver(m)
		}
		q.directDone.Add(1)
		if q.stopped.Load() {
			q.poke() // run calls down after the last delivery
		}
		return
	}
	q.seq++
	it.seq = q.seq
	heap.Push(&q.items, it)
	if q.items[0].seq == it.seq { // new head: run may be waiting for a later one
		q.poke()
	}
	q.mu.Unlock()
}

// poke makes run look at the queue again.
func (q *dqueue) poke() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Attach implements transport.Endpoint. Messages already queued for
// this node are delivered from the queue goroutine first.
func (e *Endpoint) Attach(deliver func(*wire.Msg), down func()) error {
	q := e.net.queues[e.id]
	q.mu.Lock()
	if q.deliver != nil {
		q.mu.Unlock()
		return transport.ErrAttached
	}
	q.deliver, q.down = deliver, down
	exited := q.exited
	q.mu.Unlock()
	if exited {
		down()
	}
	q.poke()
	return nil
}

// receive turns a due item into the endpoint's message: past the link,
// if there is one, then decode, account, recycle the wire buffer
// (Decode copied the payloads). Nil: the link kept the frame.
func (q *dqueue) receive(it item) *wire.Msg {
	raw := it.raw
	if lk := q.ep.net.pairs[it.from][q.ep.id].lk; lk != nil {
		var ok bool
		if raw, ok = lk.accept(raw, q.ep.st); !ok {
			wire.PutBuf(it.buf)
			return nil
		}
	}
	m, err := wire.Decode(raw)
	if err != nil {
		// A decode failure is a bug in this repository, not a
		// runtime condition: the bytes never left the process.
		panic(fmt.Sprintf("simnet: decode at node %d: %v", q.ep.id, err))
	}
	q.ep.st.MsgsRecv.Add(1)
	q.ep.st.BytesRecv.Add(int64(len(raw)))
	wire.PutBuf(it.buf)
	return m
}

func (q *dqueue) stop() {
	q.mu.Lock()
	q.stopped.Store(true)
	q.mu.Unlock()
	q.poke()
}

func (q *dqueue) stall(until time.Time) {
	q.mu.Lock()
	if until.After(q.stallUntil) {
		q.stallUntil = until
	}
	q.mu.Unlock()
}

func (q *dqueue) run() {
	for {
		q.mu.Lock()
		q.delivering = false
		if q.stopped.Load() && q.direct == q.directDone.Load() {
			// Queued messages are discarded; down follows the last
			// delivery (or comes with a later Attach).
			q.exited = true
			down := q.down
			q.mu.Unlock()
			if down != nil {
				down()
			}
			return
		}
		if q.stopped.Load() || len(q.items) == 0 || q.deliver == nil {
			q.mu.Unlock()
			<-q.wake
			continue
		}
		it := q.items[0]
		due := it.at
		if q.stallUntil.After(due) {
			// A stalled endpoint processes nothing until it resumes.
			due = q.stallUntil
		}
		if wait := time.Until(due); wait > 0 {
			// Wait outside the lock. An earlier-due message cannot
			// appear for this pair (per-pair times are monotonic) but
			// can for another: its push (a new head) ends the wait.
			q.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-q.wake:
				timer.Stop()
			}
			continue
		}
		heap.Pop(&q.items)
		q.delivering = true
		deliver := q.deliver
		q.mu.Unlock()
		if m := q.receive(it); m != nil {
			deliver(m)
		}
	}
}

type itemHeap []item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

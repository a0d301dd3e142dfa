package nodecore

import (
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message batching (see DESIGN.md §4.8). With batching enabled, a
// runtime keeps one queue of pending one-way messages per remote
// destination and packs a queue into a single wire.KBatch frame when
// it flushes. A queue flushes when it grows past the policy's size
// caps, when the latency-cap ticker fires, when the engine asks
// (FlushBatches at a release/barrier boundary), or when any direct
// Send targets the same destination — the queued messages then
// piggyback on that send's frame, which also preserves per-pair FIFO
// order between queued and direct traffic.
//
// Batching composes with the reliability layer because members keep
// their own request ids and Attempt counters: the receiving dispatch
// loop unpacks a batch and runs every member through the same
// reply-routing and duplicate-suppression path as a lone message. The
// batch frame itself carries no request id and is never deduplicated;
// retransmissions travel per member.

// BatchPolicy tunes the batching layer installed by EnableBatching.
type BatchPolicy struct {
	// MaxMsgs flushes a destination's queue at this many members
	// (default 32).
	MaxMsgs int
	// MaxBytes flushes a destination's queue when its encoded size
	// would exceed this (default 32 KiB).
	MaxBytes int
	// MaxDelay bounds how long a queued message may wait for company
	// (default 1ms).
	MaxDelay time.Duration
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxMsgs <= 0 {
		p.MaxMsgs = 32
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = 32 << 10
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	return p
}

// batcher holds the per-destination queues. The mutex is held across
// the endpoint send so that a piggybacking direct send cannot be
// overtaken by a concurrent flush of the same queue.
type batcher struct {
	r      *Runtime
	policy BatchPolicy

	mu    sync.Mutex
	q     map[transport.NodeID][]*wire.Msg
	bytes map[transport.NodeID]int

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newBatcher(r *Runtime, p BatchPolicy) *batcher {
	b := &batcher{
		r:      r,
		policy: p,
		q:      make(map[transport.NodeID][]*wire.Msg),
		bytes:  make(map[transport.NodeID]int),
		stopCh: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.flusher()
	return b
}

func (b *batcher) stop() {
	b.stopOnce.Do(func() { close(b.stopCh) })
	b.wg.Wait()
}

// flusher enforces the latency cap: queues drain at least every
// MaxDelay even if no size trigger or piggyback comes along.
func (b *batcher) flusher() {
	defer b.wg.Done()
	t := time.NewTicker(b.policy.MaxDelay)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			b.flushAll()
		case <-b.stopCh:
			b.flushAll()
			return
		}
	}
}

// enqueue queues a one-way message for its destination, flushing the
// queue if it hit a size cap. The message must already be
// From-stamped and remote-addressed.
func (b *batcher) enqueue(m *wire.Msg) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.q[m.To] = append(b.q[m.To], m)
	b.bytes[m.To] += m.EncodedSize()
	if len(b.q[m.To]) >= b.policy.MaxMsgs || b.bytes[m.To] >= b.policy.MaxBytes {
		return b.flushDestLocked(m.To)
	}
	return nil
}

// sendWithPending transmits m, letting any queued messages for the
// same destination ride along in one frame ahead of it.
func (b *batcher) sendWithPending(m *wire.Msg) error {
	b.mu.Lock()
	if len(b.q[m.To]) == 0 {
		b.mu.Unlock()
		return b.r.xmit(m)
	}
	defer b.mu.Unlock()
	b.q[m.To] = append(b.q[m.To], m)
	return b.flushDestLocked(m.To)
}

// sendBatchFrame transmits several first-transmission requests to one
// destination in a single frame, prepending any queued one-way
// messages for it.
func (b *batcher) sendBatchFrame(to transport.NodeID, members []*wire.Msg) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pending := b.q[to]; len(pending) > 0 {
		members = append(pending, members...)
		delete(b.q, to)
		delete(b.bytes, to)
	}
	return b.sendLocked(to, members)
}

func (b *batcher) flushAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for to := range b.q {
		_ = b.flushDestLocked(to) // a failed flush surfaces via retries
	}
}

func (b *batcher) flushDest(to transport.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = b.flushDestLocked(to)
}

func (b *batcher) flushDestLocked(to transport.NodeID) error {
	members := b.q[to]
	if len(members) == 0 {
		return nil
	}
	delete(b.q, to)
	delete(b.bytes, to)
	return b.sendLocked(to, members)
}

// sendLocked ships a member set as one frame: a lone member goes out
// as itself (a one-member batch would only add overhead), more share
// a KBatch frame built in a pooled buffer.
func (b *batcher) sendLocked(to transport.NodeID, members []*wire.Msg) error {
	if len(members) == 1 {
		return b.r.xmit(members[0])
	}
	if b.r.tracer != nil {
		b.r.tracer.Emit(trace.EvBatchFlush, to, 0, -1, -1, uint64(len(members)), 0)
	}
	bp := wire.GetBuf()
	batch := &wire.Msg{Kind: wire.KBatch, From: b.r.id, To: to}
	batch.Data = wire.PackBatch(*bp, members)
	err := b.r.xmit(batch)
	*bp = batch.Data
	wire.PutBuf(bp)
	b.r.st.BatchedMsgs.Add(int64(len(members)))
	b.r.st.FlushedBatches.Add(1)
	return err
}

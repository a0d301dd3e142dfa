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
// it flushes. A queue flushes when it grows past the size caps below,
// when the latency-cap ticker fires, when the engine asks
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

const (
	batchMaxMsgs  = 32               // a queue flushes at this many members
	batchMaxBytes = 32 << 10         // or at this many encoded bytes
	batchMaxDelay = time.Millisecond // a queued message waits at most this long for company
)

// batcher holds the per-destination queues. The mutex is held across
// the endpoint send so that a piggybacking direct send cannot be
// overtaken by a concurrent flush of the same queue.
type batcher struct {
	r *Runtime

	mu    sync.Mutex
	q     map[transport.NodeID][]*wire.Msg
	bytes map[transport.NodeID]int

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newBatcher starts a batcher whose latency cap is maxDelay
// (batchMaxDelay, save in tests that flush by hand).
func newBatcher(r *Runtime, maxDelay time.Duration) *batcher {
	b := &batcher{
		r:      r,
		q:      make(map[transport.NodeID][]*wire.Msg),
		bytes:  make(map[transport.NodeID]int),
		stopCh: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.flusher(maxDelay)
	return b
}

func (b *batcher) stop() {
	b.stopOnce.Do(func() { close(b.stopCh) })
	b.wg.Wait()
}

// flusher enforces the latency cap: queues drain at least every
// maxDelay even if no size trigger or piggyback comes along.
func (b *batcher) flusher(maxDelay time.Duration) {
	defer b.wg.Done()
	t := time.NewTicker(maxDelay)
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
	if len(b.q[m.To]) >= batchMaxMsgs || b.bytes[m.To] >= batchMaxBytes {
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

package nodecore

import (
	"bytes"
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
// Members keep their own request ids: the receiving runtime unpacks a
// batch and runs every member through the same reply-routing path as a
// lone message. The batch frame itself carries no request id.

const (
	batchMaxMsgs  = 32               // a queue flushes at this many members
	batchMaxBytes = 32 << 10         // or at this many encoded bytes
	batchMaxDelay = time.Millisecond // a queued message waits at most this long for company
)

// batcher holds the per-destination queues. Its mutex is never held
// across a transmission, which may run inline handlers that send back
// through it (DESIGN.md §4.2); one goroutine at a time transmits to a
// destination, so frames leave in queue order.
type batcher struct {
	r *Runtime

	mu    sync.Mutex
	q     map[transport.NodeID][]*wire.Msg
	bytes map[transport.NodeID]int
	busy  map[transport.NodeID]bool // a goroutine is transmitting to the destination

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
		busy:   make(map[transport.NodeID]bool),
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
	b.q[m.To] = append(b.q[m.To], m)
	b.bytes[m.To] += m.EncodedSize()
	full := len(b.q[m.To]) >= batchMaxMsgs || b.bytes[m.To] >= batchMaxBytes
	b.mu.Unlock()
	if full {
		return b.send(m.To)
	}
	return nil
}

// sendWithPending transmits m, letting any queued messages for the
// same destination ride along in one frame ahead of it.
func (b *batcher) sendWithPending(m *wire.Msg) error { return b.send(m.To, m) }

// sendBatchFrame transmits several first-transmission requests to one
// destination in a single frame, prepending any queued one-way
// messages for it.
func (b *batcher) sendBatchFrame(to transport.NodeID, members []*wire.Msg) error {
	return b.send(to, members...)
}

func (b *batcher) flushAll() {
	b.mu.Lock()
	tos := make([]transport.NodeID, 0, len(b.q))
	for to := range b.q {
		tos = append(tos, to)
	}
	b.mu.Unlock()
	for _, to := range tos {
		_ = b.send(to) // a failed flush surfaces via retries
	}
}

// send transmits to's queue followed by ms, then whatever was queued
// for to meanwhile. If another goroutine is transmitting to to, copies
// of ms (the caller may reuse ms) join the queue it drains.
func (b *batcher) send(to transport.NodeID, ms ...*wire.Msg) error {
	var err error
	for first := true; ; first = false {
		b.mu.Lock()
		if first && b.busy[to] {
			for _, m := range ms {
				cp := *m
				cp.Data = bytes.Clone(m.Data)
				b.q[to] = append(b.q[to], &cp)
			}
			b.mu.Unlock()
			return nil
		}
		members := append(b.q[to], ms...)
		ms = nil
		delete(b.q, to)
		delete(b.bytes, to)
		if len(members) == 0 {
			delete(b.busy, to)
			b.mu.Unlock()
			return err
		}
		b.busy[to] = true
		b.mu.Unlock()
		if e := b.sendFrame(to, members); first {
			err = e
		}
	}
}

// sendFrame ships a member set as one frame: a lone member goes out
// as itself (a one-member batch would only add overhead), more share
// a KBatch frame built in a pooled buffer.
func (b *batcher) sendFrame(to transport.NodeID, members []*wire.Msg) error {
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

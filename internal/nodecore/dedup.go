package nodecore

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// dedupTable makes request handling idempotent under at-least-once
// delivery: each request a node receives is recorded keyed by
// (origin, request id), and a retransmitted or network-duplicated
// copy is answered from the record instead of re-running the handler.
//
// Entry lifecycle:
//
//   - created inflight when the first copy of a request is dispatched
//     to its handler;
//   - moves to forwarded when the node relays the request elsewhere
//     (manager relays, probable-owner chains) — duplicates re-send
//     the recorded relay copy (which may carry flags and tokens the
//     original lacks), and the destination's own table finishes the
//     job;
//   - moves to done when the node sends a reply carrying the request
//     id — the reply is cached and re-sent verbatim for duplicates.
//
// The table is bounded: once it exceeds its capacity, entries are
// evicted oldest first, so memory does not grow with message count.
// An answered or relayed transaction whose duplicate arrives later
// than capacity-many newer requests can be forgotten; its caller has
// its reply (or another copy on the way) and stops retransmitting.
// An inflight entry is different: its caller — a lock, barrier or
// event waiter queued at this manager — retransmits for as long as it
// waits, and forgetting it would admit the next retransmission as a
// new request: a second queue entry, a second grant, a lock nobody
// releases. So eviction passes over inflight entries younger than
// dedupInflightKeep, and the table may exceed its capacity by the
// number of requests genuinely waiting here.
type dedupTable struct {
	mu      sync.Mutex
	cap     int
	entries map[dedupKey]*dedupEntry
	order   []dedupKey // eviction order: insertion, except passed-over inflight keys requeue
}

// dedupInflightKeep outlasts every caller in the tree: the longest
// call timeout is dsync's 2-minute AcquireTimeout, and the entry is
// younger than the call it serves.
const dedupInflightKeep = 2 * time.Minute

type dedupKey struct {
	from int32
	req  uint64
}

const (
	dedupInflight = iota
	dedupForwarded
	dedupDone
)

type dedupEntry struct {
	state int
	at    time.Time // first sighting
	fwd   *wire.Msg // the relayed copy, valid when state == dedupForwarded
	reply *wire.Msg // valid when state == dedupDone
}

const defaultDedupCap = 4096

func newDedupTable(capacity int) *dedupTable {
	if capacity <= 0 {
		capacity = defaultDedupCap
	}
	return &dedupTable{
		cap:     capacity,
		entries: make(map[dedupKey]*dedupEntry),
	}
}

// admit records the first sighting of a request and reports whether
// it is a duplicate; for duplicates it returns the recorded state.
func (t *dedupTable) admit(from int32, req uint64) (dup bool, state int, fwd, reply *wire.Msg) {
	k := dedupKey{from, req}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[k]; ok {
		return true, e.state, e.fwd, e.reply
	}
	now := time.Now()
	t.entries[k] = &dedupEntry{state: dedupInflight, at: now}
	t.order = append(t.order, k)
	// One lap at most: if everything is young and inflight, stay over.
	for lap := len(t.order); len(t.entries) > t.cap && lap > 0; lap-- {
		evict := t.order[0]
		t.order = t.order[1:]
		if e := t.entries[evict]; e.state == dedupInflight && now.Sub(e.at) < dedupInflightKeep {
			t.order = append(t.order, evict)
			continue
		}
		delete(t.entries, evict)
	}
	return false, dedupInflight, nil, nil
}

// completed caches the reply sent for request (from, req). A reply
// for an unknown key is ignored (the entry was evicted, or the
// message is a token release rather than a request reply).
func (t *dedupTable) completed(from int32, req uint64, reply *wire.Msg) {
	k := dedupKey{from, req}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok {
		e.state = dedupDone
		e.reply = reply
	}
	t.mu.Unlock()
}

// forwarded records the relay copy sent for request (from, req), so a
// duplicate can re-send it verbatim. The copy matters: relays may
// decorate the message with flags and transaction tokens, and a
// re-relay of the undecorated original would start a second,
// conflicting transaction at the destination.
func (t *dedupTable) forwarded(from int32, req uint64, fwd *wire.Msg) {
	k := dedupKey{from, req}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok && e.state != dedupDone {
		e.state = dedupForwarded
		e.fwd = fwd
	}
	t.mu.Unlock()
}

// size returns the current entry count (for tests).
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

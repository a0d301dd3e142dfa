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
//     job. A chain can bring the request back to a node that relayed
//     it, further along: a copy whose hop count (B) exceeds the first
//     copy's is that return, not a retransmission, and is admitted
//     afresh;
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
// number of requests genuinely waiting here. A relayed request of a
// blocking kind (a lock request the manager sent on to the token's
// owner) is kept too: its caller retransmits to this node for as long
// as the owner makes it wait, and a forgotten relay would be processed
// a second time. Such a relay is kept until no copy has come for idle,
// outside the capacity, so that the relays of a busy lock manager
// never crowd out the entries of other requests.
type dedupTable struct {
	mu      sync.Mutex
	cap     int
	idle    time.Duration
	relays  int // entries kept as relays, not counted against cap
	entries map[dedupKey]*dedupEntry
	order   []dedupKey // eviction order: insertion, except passed-over kept keys requeue
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
	keep  bool      // a blocking kind's relay, kept while its caller retransmits
	hops  uint64    // B of the copy admitted
	at    time.Time // first sighting; for a kept relay, the latest
	fwd   *wire.Msg // the relayed copy, valid when state == dedupForwarded
	reply *wire.Msg // valid when state == dedupDone
}

const defaultDedupCap = 4096

// newDedupTable sizes a table; idle is how long a kept relay outlives
// its last copy, longer than any retransmission interval.
func newDedupTable(capacity int, idle time.Duration) *dedupTable {
	if capacity <= 0 {
		capacity = defaultDedupCap
	}
	return &dedupTable{
		cap:     capacity,
		idle:    idle,
		entries: make(map[dedupKey]*dedupEntry),
	}
}

// admit records the first sighting of a request, which has travelled
// hops relays, and reports whether it is a duplicate; for duplicates
// it returns the recorded state.
func (t *dedupTable) admit(from int32, req, hops uint64) (dup bool, state int, fwd, reply *wire.Msg) {
	k := dedupKey{from, req}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if e, ok := t.entries[k]; ok {
		if e.state != dedupForwarded || hops <= e.hops {
			if e.keep {
				e.at = now // its caller still waits
			}
			return true, e.state, e.fwd, e.reply
		}
		// Back along the relay chain: this node handles it again.
		t.unkeep(e)
		e.state, e.hops, e.fwd = dedupInflight, hops, nil
		return false, dedupInflight, nil, nil
	}
	t.entries[k] = &dedupEntry{state: dedupInflight, hops: hops, at: now}
	t.order = append(t.order, k)
	// One lap at most: if everything is young and kept, stay over. A
	// relay whose caller has gone quiet goes whenever it is reached.
	for lap := len(t.order); lap > 0; lap-- {
		key := t.order[0]
		e := t.entries[key]
		switch {
		case e.keep && now.Sub(e.at) >= t.idle:
		case len(t.entries)-t.relays <= t.cap:
			return false, dedupInflight, nil, nil
		case e.keep || e.state == dedupInflight && now.Sub(e.at) < dedupInflightKeep:
			t.order = append(t.order[1:], key)
			continue
		}
		t.order = t.order[1:]
		t.unkeep(e)
		delete(t.entries, key)
	}
	return false, dedupInflight, nil, nil
}

func (t *dedupTable) unkeep(e *dedupEntry) {
	if e.keep {
		e.keep = false
		t.relays--
	}
}

// completed caches the reply sent for request (from, req). A reply
// for an unknown key is ignored (the entry was evicted, or the
// message is a token release rather than a request reply).
func (t *dedupTable) completed(from int32, req uint64, reply *wire.Msg) {
	k := dedupKey{from, req}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok {
		t.unkeep(e)
		e.state = dedupDone
		e.reply = reply
	}
	t.mu.Unlock()
}

// forwarded records the relay copy sent for request (from, req), so a
// duplicate can re-send it verbatim. The copy matters: relays may
// decorate the message with flags and transaction tokens, and a
// re-relay of the undecorated original would start a second,
// conflicting transaction at the destination. keep marks a relay
// whose caller may wait long (a blocking kind).
func (t *dedupTable) forwarded(from int32, req uint64, fwd *wire.Msg, keep bool) {
	k := dedupKey{from, req}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok && e.state != dedupDone {
		e.state = dedupForwarded
		e.fwd = fwd
		if keep && !e.keep {
			e.keep, e.at = true, time.Now()
			t.relays++
		}
	}
	t.mu.Unlock()
}

// size returns the current entry count (for tests).
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

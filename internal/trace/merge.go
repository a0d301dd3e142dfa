package trace

import (
	"fmt"
	"io"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// Causal merge of per-node event streams into one cluster timeline.
//
// Each stream is already in its node's happens-before order (ring
// index order; Emit is sequenced with the instrumented operation).
// Across streams only one ordering obligation exists: a message's
// EvRecv must come after a matching EvSend. The merge replays all
// streams with a greedy ready-set scheduler — at each step it emits
// the earliest-timestamped stream head whose obligations are met — so
// wall-clock skew between nodes (real in TCP cluster mode, absent in
// the simulator) can never produce a recv-before-send timeline.
//
// Matching key: (Req, wire kind). Request ids are globally unique and
// the kind separates a request from its reply (which reuses the Req).
// A forwarded request keeps its key, so sends and recvs are
// multiset-matched: a recv is ready once the number of emitted sends
// with its key exceeds the recvs already consumed, or once no unemitted
// matching send exists anywhere (the send may predate the ring's
// retention window, or the sender may not be traced). One-way messages
// with Req 0 carry no obligation. Link retransmissions are EvRetry
// events, outside the matching: each message is sent and received once.
//
// During replay the merge also reconstructs full-width vector clocks
// (tick the emitter's component per event; on a matched recv, join
// the send's clock), which is what CheckCausal verifies and what the
// timeline renderer prints — unlike the inline Event.VC stamps these
// are never truncated and span processes.

// MergedEvent is one event of the merged timeline with its
// epoch-aligned absolute timestamp and reconstructed cluster-wide
// vector clock.
type MergedEvent struct {
	Event
	AbsTS int64 // ns, EpochUnixNs + TS
	VC    vclock.VC
}

// msgKey identifies a message for send/recv matching.
type msgKey struct {
	req  uint64
	kind uint8
}

// Merge interleaves per-node streams into one causally ordered
// timeline. Streams may be in any order; empty streams are fine.
func Merge(streams []Stream) []MergedEvent {
	type cursor struct {
		s *Stream
		i int
	}
	nvc := 0
	total := 0
	avail := make(map[msgKey]int)
	cursors := make([]cursor, 0, len(streams))
	for i := range streams {
		s := &streams[i]
		if int(s.Node) >= nvc {
			nvc = int(s.Node) + 1
		}
		total += len(s.Events)
		for _, e := range s.Events {
			if e.Type == EvSend && e.Req != 0 {
				avail[msgKey{e.Req, e.MsgKind()}]++
			}
		}
		cursors = append(cursors, cursor{s: s})
	}
	emitted := make(map[msgKey]int)
	consumed := make(map[msgKey]int)
	sendVC := make(map[msgKey]vclock.VC)
	clocks := make([]vclock.VC, nvc)
	out := make([]MergedEvent, 0, total)
	for {
		pick, ready := -1, -1
		var pickTS, readyTS int64
		for ci := range cursors {
			c := &cursors[ci]
			if c.i >= len(c.s.Events) {
				continue
			}
			e := c.s.Events[c.i]
			abs := c.s.EpochUnixNs + e.TS
			isReady := true
			if e.Type == EvRecv && e.Req != 0 {
				k := msgKey{e.Req, e.MsgKind()}
				if emitted[k] <= consumed[k] && avail[k] > consumed[k] {
					// A matching send exists somewhere but has not been
					// replayed yet: this recv must wait for it.
					isReady = false
				}
			}
			if pick < 0 || abs < pickTS {
				pick, pickTS = ci, abs
			}
			if isReady && (ready < 0 || abs < readyTS) {
				ready, readyTS = ci, abs
			}
		}
		if pick < 0 {
			break
		}
		if ready < 0 {
			// Only possible on malformed input (a recv whose matching
			// send is forever blocked behind it); emit by timestamp
			// rather than deadlock.
			ready = pick
		}
		c := &cursors[ready]
		e := c.s.Events[c.i]
		c.i++
		node := int(e.Node)
		if node < 0 || node >= nvc {
			// Malformed event: drop it, but if it was counted as an
			// available send, un-count it — otherwise avail[k] stays
			// permanently above consumed[k] and every matching recv is
			// held unready until the malformed-input fallback fires,
			// scrambling the merge order.
			if e.Type == EvSend && e.Req != 0 {
				avail[msgKey{e.Req, e.MsgKind()}]--
			}
			continue
		}
		vc := clocks[node]
		if vc == nil {
			vc = vclock.New(nvc)
			clocks[node] = vc
		}
		vc.Tick(node)
		if e.Type == EvRecv && e.Req != 0 {
			k := msgKey{e.Req, e.MsgKind()}
			if sv := sendVC[k]; sv != nil {
				vc.Merge(sv)
			}
			consumed[k]++
		}
		me := MergedEvent{Event: e, AbsTS: c.s.EpochUnixNs + e.TS, VC: vc.Copy()}
		if e.Type == EvSend && e.Req != 0 {
			k := msgKey{e.Req, e.MsgKind()}
			emitted[k]++
			sendVC[k] = me.VC
		}
		out = append(out, me)
	}
	return out
}

// CheckCausal verifies a merged timeline's causal invariants: every
// recv whose message has a traced send appears after at least one
// matching send, with a vector clock covering that send's clock; and
// each node's clocks are non-decreasing. It returns the first
// violation, or nil.
func CheckCausal(merged []MergedEvent) error {
	avail := make(map[msgKey]int)
	for _, e := range merged {
		if e.Type == EvSend && e.Req != 0 {
			avail[msgKey{e.Req, e.MsgKind()}]++
		}
	}
	sends := make(map[msgKey]vclock.VC)
	last := make(map[int32]vclock.VC)
	for i, e := range merged {
		if prev := last[e.Node]; prev != nil && !e.VC.Covers(prev) {
			return fmt.Errorf("trace: event %d: node %d clock %v regressed from %v", i, e.Node, e.VC, prev)
		}
		last[e.Node] = e.VC
		k := msgKey{e.Req, e.MsgKind()}
		switch e.Type {
		case EvSend:
			if e.Req != 0 {
				sends[k] = e.VC
			}
		case EvRecv:
			if e.Req == 0 || avail[k] == 0 {
				continue // untraceable: no matching send recorded anywhere
			}
			sv, ok := sends[k]
			if !ok {
				return fmt.Errorf("trace: event %d: recv of req %x kind %v at node %d before any matching send",
					i, e.Req, wire.Kind(e.MsgKind()), e.Node)
			}
			if !e.VC.Covers(sv) {
				return fmt.Errorf("trace: event %d: recv clock %v does not cover send clock %v (req %x)",
					i, e.VC, sv, e.Req)
			}
		}
	}
	return nil
}

// Describe renders an event's type-specific detail for the text
// timeline and debug endpoint.
func Describe(e Event) string {
	switch e.Type {
	case EvFaultBegin, EvFaultEnd:
		rw := "read"
		if e.Arg == 1 {
			rw = "write"
		}
		if e.Type == EvFaultEnd {
			return fmt.Sprintf("%s fault page %d served in %s", rw, e.Page, fmtNs(e.Dur))
		}
		return fmt.Sprintf("%s fault page %d", rw, e.Page)
	case EvSend, EvRecv, EvRetry:
		dir := map[Type]string{EvSend: "-> %d", EvRecv: "<- %d", EvRetry: "retry -> %d"}[e.Type]
		s := fmt.Sprintf("%v "+dir, wire.Kind(e.MsgKind()), e.Peer)
		if e.Req != 0 {
			s += fmt.Sprintf(" req=%x", e.Req)
		}
		return s
	case EvLockAcquire:
		return fmt.Sprintf("%s requested (mode %d)", syncObj(e.Lock), e.Arg)
	case EvLockGrant:
		return fmt.Sprintf("%s granted after %s", syncObj(e.Lock), fmtNs(e.Dur))
	case EvLockRelease:
		return fmt.Sprintf("%s released", syncObj(e.Lock))
	case EvBarArrive:
		return fmt.Sprintf("barrier %d arrive", e.Lock)
	case EvBarRelease:
		return fmt.Sprintf("barrier %d released after %s", e.Lock, fmtNs(e.Dur))
	case EvBatchFlush:
		return fmt.Sprintf("batch of %d -> %d", e.Arg, e.Peer)
	case EvDiffPush:
		return fmt.Sprintf("diff push page %d -> %d", e.Page, e.Peer)
	case EvDiffFetch:
		return fmt.Sprintf("diff fetch page %d <- %d", e.Page, e.Peer)
	case EvChaos:
		s := "chaos: " + ChaosName(e.Arg)
		if e.Peer >= 0 {
			s += fmt.Sprintf(" (peer %d)", e.Peer)
		}
		if e.Dur > 0 {
			s += fmt.Sprintf(" for %s", fmtNs(e.Dur))
		}
		return s
	case EvRead, EvWrite:
		rw := "read"
		if e.Type == EvWrite {
			rw = "write"
		}
		return fmt.Sprintf("%s page %d [%d:%d) hash=%x",
			rw, e.Page, e.AccessOff(), e.AccessOff()+e.AccessLen(), e.Req)
	case EvMark:
		names := map[uint64]string{
			MarkForkRelease: "fork-release",
			MarkForkAcquire: "fork-acquire",
			MarkJoinRelease: "join-release",
			MarkJoinAcquire: "join-acquire",
		}
		return fmt.Sprintf("mark %s gen %d", names[e.MarkPhase()], e.MarkGen())
	}
	return e.Type.String()
}

// syncObj names a sync-event id: lock hooks use non-negative ids,
// event hooks the ones-complement of the event id (see
// dsync.eventHookID).
func syncObj(l int32) string {
	if l < 0 {
		return fmt.Sprintf("event %d", ^l)
	}
	return fmt.Sprintf("lock %d", l)
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// WriteTimeline renders a merged timeline as aligned text, one event
// per line, timestamps relative to the first event.
func WriteTimeline(w io.Writer, merged []MergedEvent) error {
	if len(merged) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	base := merged[0].AbsTS
	for _, e := range merged {
		_, err := fmt.Fprintf(w, "%10.3fms  n%-2d %-12s %-44s vc=%v\n",
			float64(e.AbsTS-base)/1e6, e.Node, e.Type, Describe(e.Event), e.VC)
		if err != nil {
			return err
		}
	}
	return nil
}

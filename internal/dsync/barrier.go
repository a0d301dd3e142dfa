package dsync

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Barrier blocks until all N nodes of the cluster have called
// Barrier with the same id, exchanging and merging the engine's
// barrier payloads (LRC distributes write notices this way). All
// nodes must use the same barrier id for a given episode, and a
// barrier id may be reused for successive episodes (the usual
// iterate-then-barrier loop).
func (s *Service) Barrier(id int32) error {
	start := time.Now()
	tr := s.rt.Tracer()
	payload := s.hooks.BarrierArrive(id)
	to := s.managerOf(id)
	if s.cfg.TreeBarrier {
		to = s.rt.ID() // arrivals aggregate locally and flow up the tree
	}
	tr.Emit(trace.EvBarArrive, int32(to), 0, -1, id, 0, 0)
	reply, err := s.rt.CallT(&wire.Msg{
		Kind: wire.KBarArrive,
		To:   to,
		Lock: id,
		Data: payload,
	}, s.cfg.AcquireTimeout)
	if err != nil {
		return fmt.Errorf("dsync: barrier %d: %w", id, err)
	}
	wait := time.Since(start)
	st := s.rt.Stats()
	st.BarrierWaits.Add(1)
	st.BarrierWaitNs.Add(wait.Nanoseconds())
	if st.Lat != nil {
		st.Lat.BarrierWait.Observe(wait.Nanoseconds())
	}
	tr.Emit(trace.EvBarRelease, int32(reply.From), 0, -1, id, 0, wait)
	s.hooks.OnBarrierRelease(id, reply.Data)
	return nil
}

// treeRank maps a physical node to its rank in the barrier tree
// rooted at the barrier's manager.
func (s *Service) treeRank(id int32, node transport.NodeID) int {
	root := int(s.managerOf(id))
	return (int(node) - root + s.rt.N()) % s.rt.N()
}

func (s *Service) rankToNode(id int32, rank int) transport.NodeID {
	root := int(s.managerOf(id))
	return transport.NodeID((root + rank) % s.rt.N())
}

// expectedArrivals returns how many arrivals this node aggregates for
// the barrier: itself plus its tree children (centralized: the
// manager aggregates everyone, other nodes aggregate nobody — they
// call the manager directly).
func (s *Service) expectedArrivals(id int32) int {
	if !s.cfg.TreeBarrier {
		return s.rt.N()
	}
	r := s.treeRank(id, s.rt.ID())
	f := s.cfg.TreeFanout
	n := s.rt.N()
	count := 1 // self
	for c := f*r + 1; c <= f*r+f && c < n; c++ {
		count++
	}
	return count
}

func (s *Service) handleBarArrive(m *wire.Msg) {
	bs := s.barState(m.Lock)
	bs.mu.Lock()
	// Dedupe arrivals by sender: a retransmitted KBarArrive that
	// outlives the dedup table's eviction window would otherwise append
	// a second waiter+payload for the same node, releasing the next
	// episode one arrival early and cross-mixing its payloads. Within an
	// episode each node arrives once, so a repeat from the same sender
	// replaces the recorded request (the release answers the latest
	// retransmission) instead of appending.
	dup := false
	for i := range bs.waiters {
		if bs.waiters[i].from == m.From {
			bs.waiters[i].req = m.Req
			bs.payloads[i] = m.Data
			dup = true
			break
		}
	}
	if !dup {
		bs.payloads = append(bs.payloads, m.Data)
		bs.waiters = append(bs.waiters, pendGrant{from: m.From, req: m.Req})
	}
	if len(bs.waiters) < s.expectedArrivals(m.Lock) {
		bs.mu.Unlock()
		return
	}
	payloads := bs.payloads
	waiters := bs.waiters
	// Reset before releasing anyone so re-arrivals for the next
	// episode land in fresh state.
	bs.payloads = nil
	bs.waiters = nil
	bs.mu.Unlock()

	merged := s.hooks.BarrierMerge(m.Lock, payloads)
	if s.cfg.TreeBarrier {
		if r := s.treeRank(m.Lock, s.rt.ID()); r != 0 {
			// Interior node: send the subtree's partial merge up and
			// wait for the global release.
			parent := s.rankToNode(m.Lock, (r-1)/s.cfg.TreeFanout)
			reply, err := s.rt.CallT(&wire.Msg{
				Kind: wire.KBarArrive,
				To:   parent,
				Lock: m.Lock,
				Data: merged,
			}, s.cfg.AcquireTimeout)
			if err != nil {
				// Shutdown mid-barrier: abandon; waiters' calls will
				// time out or be cancelled by runtime close.
				return
			}
			merged = reply.Data
		}
	}
	rf, _ := s.hooks.(ReleaseFilter)
	// The local waiter goes last: once released, the node may shut down.
	for i, w := range waiters {
		if w.from == s.rt.ID() {
			waiters[i], waiters[len(waiters)-1] = waiters[len(waiters)-1], w
		}
	}
	for _, w := range waiters {
		data := merged
		if rf != nil {
			data = rf.BarrierReleaseFor(m.Lock, w.from, merged)
		}
		_ = s.rt.Send(&wire.Msg{
			Kind: wire.KBarRelease,
			To:   w.from,
			Req:  w.req,
			Lock: m.Lock,
			Data: data,
		})
	}
}

// Package erc implements eager release consistency: a home-based
// multiple-writer protocol in the style of Munin's write-shared
// protocol (Carter, Bennett & Zwaenepoel, ASPLOS 1991).
//
// Writers write locally after snapshotting a twin of the page. At
// every release (and barrier arrival) the releaser flushes a diff of
// each dirty page to the page's home, which merges it and eagerly
// propagates to all other copy holders before the release completes —
// by invalidating them (Inval flavor) or by forwarding the diff
// (Update flavor, Munin's choice). Acquires do no consistency work;
// that is what distinguishes *eager* from *lazy* RC, and experiment
// E7 measures the message-count gap between the two.
//
// Correct only for data-race-free programs that synchronize through
// the dsync lock and barrier services — the contract all
// RC-family DSM systems impose.
package erc

import (
	"fmt"
	"sync"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Flavor selects how the home propagates a flushed diff.
type Flavor int

const (
	// Inval: copy holders are invalidated and refetch on demand.
	Inval Flavor = iota
	// Update: the diff is forwarded to every copy holder.
	Update
)

// String names the flavor.
func (f Flavor) String() string {
	if f == Update {
		return "update"
	}
	return "invalidate"
}

// Engine is the per-node ERC protocol instance.
type Engine struct {
	dsync.NopHooks
	rt     *nodecore.Runtime
	flavor Flavor
	tx     *nodecore.TxLocks
}

// New creates the engine for one node.
func New(rt *nodecore.Runtime, flavor Flavor) *Engine {
	return &Engine{rt: rt, flavor: flavor, tx: nodecore.NewTxLocks(rt.Table().NumPages())}
}

// Name implements nodecore.Engine.
func (e *Engine) Name() string { return "erc-" + e.flavor.String() }

// Register implements nodecore.Engine.
func (e *Engine) Register(rt *nodecore.Runtime) {
	rt.Handle(wire.KErcFetch, e.handleFetch)
	rt.Handle(wire.KErcFlush, e.handleFlush)
	rt.Handle(wire.KErcInval, e.handleInval)
	rt.Handle(wire.KErcUpdate, e.handleUpdate)
}

// Init implements nodecore.Engine: page p is homed at node p mod N;
// the home's copy starts valid (zeros) and read-only, all other
// copies invalid.
func (e *Engine) Init() {
	tbl := e.rt.Table()
	for i := 0; i < tbl.NumPages(); i++ {
		p := tbl.Page(mem.PageID(i))
		home := e.homeOf(mem.PageID(i))
		p.Lock()
		p.Owner = home
		if home == e.rt.ID() {
			p.SetProt(mem.ReadOnly)
		} else {
			p.SetProt(mem.Invalid)
		}
		p.Unlock()
	}
}

func (e *Engine) homeOf(pg mem.PageID) transport.NodeID {
	return transport.NodeID(int(pg) % e.rt.N())
}

// ReadFault implements nodecore.Engine: fetch a read-only copy from
// the home.
func (e *Engine) ReadFault(pg mem.PageID) error { return e.fetch(pg) }

// WriteFault implements nodecore.Engine: ensure a valid copy, then
// twin it and write locally without blocking. The loop closes the
// window where a concurrent flush by another writer invalidates our
// freshly fetched copy before we twin it — twinning an invalidated
// copy would leave us writable on a stale base and outside the
// home's copyset.
func (e *Engine) WriteFault(pg mem.PageID) error {
	p := e.rt.Table().Page(pg)
	for {
		p.Lock()
		if p.Prot() >= mem.ReadOnly {
			if p.MakeTwin() {
				e.rt.Stats().TwinCopies.Add(1)
			}
			p.SetProt(mem.ReadWrite)
			p.Unlock()
			return nil
		}
		p.Unlock()
		if err := e.fetch(pg); err != nil {
			return err
		}
	}
}

func (e *Engine) fetch(pg mem.PageID) error {
	home := e.homeOf(pg)
	if home == e.rt.ID() {
		// The home's copy is permanently valid; a fault here would be
		// a protocol bug.
		return fmt.Errorf("erc: node %d: fault on self-homed page %d", e.rt.ID(), pg)
	}
	e.rt.Tracer().Emit(trace.EvDiffFetch, int32(home), 0, pg, -1, 0, 0)
	reply, err := e.rt.Call(&wire.Msg{Kind: wire.KErcFetch, To: home, Page: pg})
	if err != nil {
		return err
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	p.Install(reply.Data, mem.ReadOnly)
	p.Unlock()
	if reply.B != 0 {
		return e.rt.ReleaseToken(home, reply.B)
	}
	return nil
}

// OnRelease implements dsync.Hooks: flush all dirty pages before the
// lock release leaves this node.
func (e *Engine) OnRelease(int32) { e.flushAll() }

// OnEventSet implements dsync.Hooks: firing an event is a release.
func (e *Engine) OnEventSet(int32) { e.flushAll() }

// BarrierArrive implements dsync.Hooks: a barrier is a release.
func (e *Engine) BarrierArrive(int32) []byte {
	e.flushAll()
	return nil
}

// flushAll pushes a diff of every locally dirty page — the table's
// written list, in page order — to its home and waits until every home
// has propagated it: the "eager" in eager RC.
func (e *Engine) flushAll() {
	tbl := e.rt.Table()
	type flush struct {
		pg   mem.PageID
		diff []byte
	}
	var flushes []flush
	for _, pg := range tbl.TakeWritten() {
		p := tbl.Page(pg)
		p.Lock()
		if p.Dirty() && p.HasTwin() {
			diff := p.DiffAgainstTwin()
			if len(diff) > 0 {
				flushes = append(flushes, flush{pg, diff})
				e.rt.Stats().DiffsCreated.Add(1)
				e.rt.Stats().DiffBytes.Add(int64(len(diff)))
			}
			p.RefreshTwin()
		} else if p.Dirty() && e.homeOf(pg) == e.rt.ID() {
			// Home wrote its own page without a twin snapshot (first
			// write happened while the page was already read-write).
			// Cannot happen: the home starts read-only and the write
			// fault always twins. Guarded for safety.
			panic(fmt.Sprintf("erc: node %d: dirty home page %d without twin", e.rt.ID(), pg))
		}
		p.Unlock()
	}
	var wg sync.WaitGroup
	var msgs []*wire.Msg
	for _, f := range flushes {
		if e.homeOf(f.pg) == e.rt.ID() {
			// Our copy is the authoritative one; just propagate.
			wg.Add(1)
			go func(f flush) {
				defer wg.Done()
				e.tx.Lock(f.pg)
				e.propagate(f.pg, f.diff, e.rt.ID())
				e.tx.Unlock(f.pg)
			}(f)
			continue
		}
		e.rt.Tracer().Emit(trace.EvDiffPush, int32(e.homeOf(f.pg)), 0, f.pg, -1, 0, 0)
		msgs = append(msgs, &wire.Msg{Kind: wire.KErcFlush, To: e.homeOf(f.pg), Page: f.pg, Data: f.diff})
	}
	// Remote flushes to the same home share a frame under batching
	// (CallBatched degenerates to the old parallel calls without it).
	// A flush can only fail at shutdown; surfacing it as a panic
	// inside an app run would mask the real (application) error.
	_, _ = e.rt.CallBatched(msgs)
	wg.Wait()
}

// handleFetch runs at the home: serialize against flushes on the
// page, register the sharer, ship the page, and wait for the
// installation confirmation.
func (e *Engine) handleFetch(m *wire.Msg) {
	pg := m.Page
	e.tx.Lock(pg)
	defer e.tx.Unlock(pg)
	p := e.rt.Table().Page(pg)
	p.Lock()
	data := p.Snapshot()
	p.Copyset.Add(int(m.From))
	p.Unlock()
	e.rt.Stats().PageTransfers.Add(1)
	tok, ch := e.rt.NewToken()
	if err := e.rt.Reply(m, &wire.Msg{Kind: wire.KErcPage, Page: pg, Data: data, B: tok}); err != nil {
		return
	}
	_ = e.rt.AwaitToken(tok, ch, e.rt.CallTimeout())
}

// handleFlush runs at the home: merge the writer's diff and
// propagate before acknowledging, so the flusher's release cannot
// complete until every replica reflects (or has dropped) the data.
func (e *Engine) handleFlush(m *wire.Msg) {
	pg := m.Page
	e.tx.Lock(pg)
	defer e.tx.Unlock(pg)
	p := e.rt.Table().Page(pg)
	p.Lock()
	if err := p.ApplyDiffLocked(m.Data, true); err != nil {
		p.Unlock()
		panic(fmt.Sprintf("erc: node %d: flush from %d: %v", e.rt.ID(), m.From, err))
	}
	p.Unlock()
	e.rt.Stats().UpdatesApplied.Add(1)
	rescued := e.propagate(pg, m.Data, m.From)
	if rescued {
		// A concurrently dirty sharer's writes were merged into the
		// home during this transaction; the flusher's copy now lacks
		// them, so it loses its copy too.
		if _, err := e.rt.Call(&wire.Msg{Kind: wire.KErcInval, To: m.From, Page: pg}); err == nil {
			p.Lock()
			p.Copyset.Remove(int(m.From))
			p.Unlock()
		}
	}
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KErcFlushAck, Page: pg})
}

// propagate pushes a freshly merged diff out to every copy holder
// except the flusher: invalidation or update per flavor. Runs at the
// home with the page's transaction lock held. It reports whether any
// invalidated sharer returned a rescue diff (unflushed concurrent
// writes merged into the home), in which case the caller must also
// invalidate the flusher.
func (e *Engine) propagate(pg mem.PageID, diff []byte, flusher transport.NodeID) bool {
	p := e.rt.Table().Page(pg)
	p.Lock()
	var targets []int
	p.Copyset.ForEach(func(i int) {
		if transport.NodeID(i) != flusher && transport.NodeID(i) != e.rt.ID() {
			targets = append(targets, i)
		}
	})
	p.Unlock()
	if len(targets) == 0 {
		return false
	}
	var wg sync.WaitGroup
	returned := make([][]byte, len(targets))
	for idx, t := range targets {
		wg.Add(1)
		go func(idx int, to transport.NodeID) {
			defer wg.Done()
			if e.flavor == Update {
				_, _ = e.rt.Call(&wire.Msg{Kind: wire.KErcUpdate, To: to, Page: pg, Data: diff})
				return
			}
			reply, err := e.rt.Call(&wire.Msg{Kind: wire.KErcInval, To: to, Page: pg})
			if err == nil && len(reply.Data) > 0 {
				returned[idx] = reply.Data
			}
		}(idx, transport.NodeID(t))
	}
	wg.Wait()
	rescued := false
	if e.flavor == Inval {
		p.Lock()
		for _, t := range targets {
			p.Copyset.Remove(t)
		}
		// A concurrently dirty sharer sends its pending diff back
		// with the invalidation ack; merge those too (disjoint by
		// data-race freedom).
		for _, d := range returned {
			if d != nil {
				if err := p.ApplyDiffLocked(d, true); err != nil {
					p.Unlock()
					panic(fmt.Sprintf("erc: node %d: merging inval-ack diff: %v", e.rt.ID(), err))
				}
				e.rt.Stats().UpdatesApplied.Add(1)
				rescued = true
			}
		}
		p.Unlock()
	}
	return rescued
}

// handleInval runs at a sharer: give up the copy, first rescuing any
// unflushed local writes by returning their diff in the ack.
func (e *Engine) handleInval(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	var myDiff []byte
	if p.Dirty() && p.HasTwin() {
		myDiff = p.DiffAgainstTwin()
		e.rt.Stats().DiffsCreated.Add(1)
		e.rt.Stats().DiffBytes.Add(int64(len(myDiff)))
	}
	p.DropTwin()
	if p.Prot() != mem.Invalid {
		p.SetProt(mem.Invalid)
		e.rt.Stats().Invalidations.Add(1)
	}
	p.Unlock()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KErcInvalAck, Page: m.Page, Data: myDiff})
}

// handleUpdate runs at a sharer: apply the remote diff to both the
// working copy and any twin, so a later local diff stays disjoint.
func (e *Engine) handleUpdate(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	if p.Prot() != mem.Invalid {
		if err := p.ApplyDiffLocked(m.Data, true); err != nil {
			p.Unlock()
			panic(fmt.Sprintf("erc: node %d: update: %v", e.rt.ID(), err))
		}
		e.rt.Stats().UpdatesApplied.Add(1)
	}
	p.Unlock()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KErcUpdAck, Page: m.Page})
}

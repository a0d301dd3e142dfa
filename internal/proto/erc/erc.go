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
	e.rt.Table().EachLocked(func(p *mem.Page) {
		p.Owner = e.rt.HomeOf(p.ID())
		if p.Owner == e.rt.ID() {
			p.SetProt(mem.ReadOnly)
		} else {
			p.SetProt(mem.Invalid)
		}
	})
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
	home := e.rt.HomeOf(pg)
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

// flushAll pushes the diff of every page written since the last flush
// (CloseWrites: the written list, in page order) to its home and waits
// until every home has propagated it: the "eager" in eager RC.
func (e *Engine) flushAll() {
	var wg sync.WaitGroup
	var msgs []*wire.Msg
	for _, f := range e.rt.CloseWrites() {
		home := e.rt.HomeOf(f.Page)
		if home == e.rt.ID() {
			// Our copy is the authoritative one; just propagate.
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.tx.Lock(f.Page)
				e.propagate(f.Page, f.Diff, e.rt.ID())
				e.tx.Unlock(f.Page)
			}()
			continue
		}
		e.rt.Tracer().Emit(trace.EvDiffPush, int32(home), 0, f.Page, -1, 0, 0)
		msgs = append(msgs, &wire.Msg{Kind: wire.KErcFlush, To: home, Page: f.Page, Data: f.Diff})
	}
	// Remote flushes to the same home share a frame under batching. A
	// flush can only fail at shutdown; surfacing it as a panic inside an
	// app run would mask the real (application) error.
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
	targets := p.Copyset.Except(int(flusher), int(e.rt.ID()))
	p.Unlock()
	if len(targets) == 0 {
		return false
	}
	msgs := make([]*wire.Msg, len(targets))
	for i, t := range targets {
		msgs[i] = &wire.Msg{Kind: wire.KErcInval, To: transport.NodeID(t), Page: pg}
		if e.flavor == Update {
			msgs[i].Kind, msgs[i].Data = wire.KErcUpdate, diff
		}
	}
	replies, _ := e.rt.CallBatched(msgs)
	if e.flavor == Update {
		return false
	}
	rescued := false
	p.Lock()
	for _, t := range targets {
		p.Copyset.Remove(t)
	}
	// A concurrently dirty sharer sends its pending diff back with the
	// invalidation ack; merge those too (disjoint by data-race freedom).
	for _, reply := range replies {
		if reply != nil && len(reply.Data) > 0 {
			if err := p.ApplyDiffLocked(reply.Data, true); err != nil {
				p.Unlock()
				panic(fmt.Sprintf("erc: node %d: merging inval-ack diff: %v", e.rt.ID(), err))
			}
			e.rt.Stats().UpdatesApplied.Add(1)
			rescued = true
		}
	}
	p.Unlock()
	return rescued
}

// handleInval runs at a sharer: give up the copy, first rescuing any
// unflushed local writes by returning their diff in the ack.
func (e *Engine) handleInval(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	myDiff, ok := p.UnflushedDiff()
	if ok {
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

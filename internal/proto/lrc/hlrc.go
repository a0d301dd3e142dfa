package lrc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/wire"
)

// Home-based LRC support (see the Engine doc comment). These paths
// are active only when the engine was built with NewHomeBased.

// validateFromHome revalidates an invalid page with one whole-page
// fetch from its home, re-applying any local unflushed writes on top
// (their twin-relative diff is disjoint from everything at the home
// by data-race freedom).
func (e *Engine) validateFromHome(pg mem.PageID) error {
	e.mu.Lock()
	delete(e.missing, pg) // the home subsumes every pending notice
	e.mu.Unlock()

	home := e.rt.HomeOf(pg)
	if home == e.rt.ID() {
		// Self-homed pages never go invalid (insert skips them); a
		// fault can still reach here through the initial write fault
		// of an untouched page, where there is nothing to fetch.
		p := e.rt.Table().Page(pg)
		p.Lock()
		if p.Prot() == mem.Invalid {
			p.SetProt(mem.ReadOnly)
		}
		p.Unlock()
		return nil
	}
	e.rt.Stats().DiffFetches.Add(1)
	reply, err := e.rt.Call(&wire.Msg{Kind: wire.KPageReq, To: home, Page: pg})
	if err != nil {
		return err
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	defer p.Unlock()
	localDiff, _ := p.UnflushedDiff()
	// Invalid until the local writes are back on top: a lock-free read
	// must never see the home's copy without them.
	p.Install(reply.Data, mem.Invalid)
	prot := mem.ReadOnly
	if p.HasTwin() {
		// New base for the current interval's eventual diff.
		p.RefreshTwin()
		prot = mem.ReadWrite
	}
	if len(localDiff) > 0 {
		if err := p.ApplyDiffLocked(localDiff, false); err != nil {
			return fmt.Errorf("hlrc: node %d: reapplying local writes to page %d: %w", e.rt.ID(), pg, err)
		}
		p.SetDirty(true)
	}
	p.SetProt(prot)
	e.rt.Stats().UpdatesApplied.Add(1)
	return nil
}

// handleHomeFlush runs at a page's home: merge a writer's
// interval-close diff. No propagation — consumers learn about the
// write through notices and fetch from here on demand.
func (e *Engine) handleHomeFlush(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	err := p.ApplyDiffLocked(m.Data, true)
	p.Unlock()
	if err != nil {
		panic(fmt.Sprintf("hlrc: node %d: flush from %d: %v", e.rt.ID(), m.From, err))
	}
	e.rt.Stats().UpdatesApplied.Add(1)
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KErcFlushAck, Page: m.Page})
}

// handleHomePageReq serves the home's current copy.
func (e *Engine) handleHomePageReq(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	data := p.Snapshot()
	p.Unlock()
	e.rt.Stats().PageTransfers.Add(1)
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KPageReply, Page: m.Page, Data: data})
}

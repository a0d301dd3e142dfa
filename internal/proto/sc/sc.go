// Package sc implements the sequentially consistent write-invalidate
// page DSM protocol of Li & Hudak's IVY (TOCS 1989): pages are
// replicated for reading (multiple readers) and owned exclusively for
// writing (single writer); a write fault invalidates every copy.
//
// The page-locating strategy is pluggable, covering the four manager
// algorithms the DSM tutorials survey:
//
//   - Central: one node manages ownership and copysets of all pages.
//   - Fixed: management is statically distributed (page mod N).
//   - Dynamic: no managers; requests chase probable-owner hints and
//     ownership metadata travels with the page.
//   - Broadcast: no managers and no hints; requesters probe every
//     node in parallel.
//
// With Migrate set, the protocol degenerates to single-copy page
// migration (the SRSW class of Stumm & Zhou): every fault transfers
// the page exclusively and there are never replicas to invalidate.
//
// Central, Fixed and Dynamic pages are instances of the ownership
// protocol in package own, the one dsync's locks run (Li & Hudak's
// improved manager): the manager keeps only the last writer, the owner
// keeps the copyset and serializes requests, and nothing confirms to
// the manager. Dynamic is the same relay with no manager. Broadcast
// serializes at the owner with nodecore's transaction locks and ends
// each grant when the requester confirms installation (a token). See
// DESIGN.md §4.13.
package sc

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/own"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Locator selects the page-locating strategy.
type Locator int

const (
	// Central: node 0 manages every page.
	Central Locator = iota
	// Fixed: page p is managed by node p mod N.
	Fixed
	// Dynamic: probable-owner chains, no managers.
	Dynamic
	// Broadcast: parallel probe of all nodes, no managers.
	Broadcast
)

// String names the locator for reports.
func (l Locator) String() string {
	switch l {
	case Central:
		return "central"
	case Fixed:
		return "fixed"
	case Dynamic:
		return "dynamic"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Locator(%d)", int(l))
	}
}

// Config tunes the engine.
type Config struct {
	Locator Locator
	// Migrate selects single-copy page migration: read faults are
	// treated as write faults and pages move exclusively.
	Migrate bool
	// CentralNode overrides the manager for Locator Central.
	CentralNode transport.NodeID
	// BreakCoherence makes the engine skip exactly one invalidation
	// (the first copyholder of the first multi-target invalidation
	// round), leaving one node with a stale readable copy. A seeded
	// protocol bug for exercising the race/SC checker; never set
	// outside tests.
	BreakCoherence bool
}

// Engine is the per-node protocol instance.
type Engine struct {
	dsync.NopHooks
	rt  *nodecore.Runtime
	cfg Config

	// Central, Fixed and Dynamic: the page instance of the ownership
	// protocol and each page's state, indexed by page id.
	own   *own.Protocol
	pages []own.State

	// Broadcast: per-page transaction locks and the one seeded skip.
	tx    *nodecore.TxLocks
	broke atomic.Bool
}

// New creates the engine for one node. Every page starts owned by its
// home, node p mod N.
func New(rt *nodecore.Runtime, cfg Config) *Engine {
	e := &Engine{rt: rt, cfg: cfg}
	n := rt.Table().NumPages()
	if cfg.Locator == Broadcast {
		e.tx = nodecore.NewTxLocks(n)
		return e
	}
	manager := func(pg int32) transport.NodeID {
		switch cfg.Locator {
		case Central:
			return cfg.CentralNode
		case Fixed:
			return rt.HomeOf(pg)
		}
		return -1 // Dynamic: a request starts at the owner hint
	}
	e.own = own.New(rt, pageRes{e}, own.Config{Manager: manager, Timeout: rt.CallTimeout(), BreakCoherence: cfg.BreakCoherence})
	e.pages = make([]own.State, n)
	for pg := range e.pages {
		e.pages[pg].Init(rt.ID(), rt.HomeOf(int32(pg)))
	}
	return e
}

// Name implements nodecore.Engine.
func (e *Engine) Name() string {
	n := "sc-invalidate/" + e.cfg.Locator.String()
	if e.cfg.Migrate {
		n = "migrate/" + e.cfg.Locator.String()
	}
	return n
}

// Register implements nodecore.Engine. The ownership protocol's
// handlers only take a page's state and frame mutexes and send, so
// they run inline; Broadcast's block on their transaction.
func (e *Engine) Register(rt *nodecore.Runtime) {
	handle, serve, inval := rt.Handle, e.ownerServe, e.handleInval
	if e.own != nil {
		handle = rt.HandleInline
		serve = func(m *wire.Msg) { e.own.Serve(&e.pages[m.Page], m.Page, m) }
		inval = func(m *wire.Msg) { e.own.Invalidated(&e.pages[m.Page], m.Page, m) }
	}
	handle(wire.KReadReq, serve)
	handle(wire.KWriteReq, serve)
	handle(wire.KInval, inval)
}

// Init implements nodecore.Engine: page p starts owned read-write by
// node p mod N, invalid elsewhere; every node's owner hint is exact.
func (e *Engine) Init() {
	e.rt.Table().EachLocked(func(p *mem.Page) {
		p.Owner = e.rt.HomeOf(p.ID())
		// A broadcast owner lists itself, so its write upgrade through
		// its own owner path is granted without the frame.
		p.Copyset.Add(int(p.Owner))
		if p.Owner == e.rt.ID() {
			p.SetProt(mem.ReadWrite)
		} else {
			p.SetProt(mem.Invalid)
		}
	})
}

// ---------------------------------------------------------------
// Fault side (runs on the faulting application goroutine).
// ---------------------------------------------------------------

// ReadFault implements nodecore.Engine.
func (e *Engine) ReadFault(pg mem.PageID) error { return e.fault(pg, e.cfg.Migrate) }

// WriteFault implements nodecore.Engine.
func (e *Engine) WriteFault(pg mem.PageID) error {
	return e.fault(pg, true)
}

// fault obtains a copy (read) or the page (write). The grant's hold
// spans its install. Where nothing waits on it, it ends here and sends
// nothing. Where something queued behind the fault, or an invalidation
// was deferred, it ends on a goroutine of its own, so that is served
// there while this goroutine, already running, makes the access that
// faulted and the ones after it. Were it served here, the page would be
// gone before that access and two writers could hand it back and forth
// forever; a race lost to that goroutine costs a fault again, never
// coherence. The goroutine only takes the page's state mutex and sends,
// so it ends on its own.
func (e *Engine) fault(pg mem.PageID, write bool) error {
	if e.own == nil {
		return e.broadcastFault(pg, write)
	}
	mode := own.Shared
	if write {
		mode = own.Exclusive
	}
	st := &e.pages[pg]
	if err := e.own.Acquire(st, pg, mode); err != nil {
		return err
	}
	if !e.own.ReleaseIdle(st) {
		go e.own.Release(st, pg)
	}
	return nil
}

// pageRes is the page instance of the ownership protocol.
type pageRes struct{ e *Engine }

func (pageRes) Request(pg int32, mode own.Mode) *wire.Msg {
	if mode == own.Exclusive {
		return &wire.Msg{Kind: wire.KWriteReq, Page: pg}
	}
	return &wire.Msg{Kind: wire.KReadReq, Page: pg}
}

func (r pageRes) Grant(pg int32, m *wire.Msg, mode own.Mode, hasCopy bool) *wire.Msg {
	return r.e.grant(m, mode == own.Exclusive, hasCopy)
}

func (r pageRes) Install(pg int32, mode own.Mode, g *wire.Msg, _ time.Time) {
	r.e.install(pg, mode == own.Exclusive, g)
}

func (pageRes) Invalidation(pg int32) *wire.Msg { return &wire.Msg{Kind: wire.KInval, Page: pg} }

func (r pageRes) Drop(pg int32, next transport.NodeID) { r.e.invalidate(pg, next) }

// grant builds the owner's grant of m's page to m.From: the owner
// invalidates (write) or downgrades (read) its own copy and ships the
// frame unless hasCopy. hasCopy is decided by the owner from its
// copyset, never by the requester: a requester's own view ("my copy
// was valid when I faulted") can be falsified by an invalidation that
// lands while its request waits in the owner's queue, and eliding the
// data then would map a stale frame read-write.
func (e *Engine) grant(m *wire.Msg, write, hasCopy bool) *wire.Msg {
	p := e.rt.Table().Page(m.Page)
	g := &wire.Msg{Kind: wire.KReadGrant, Page: m.Page}
	p.Lock()
	if write {
		g.Kind = wire.KWriteGrant
		if hasCopy {
			g.Arg |= wire.FlagNoData
		} else {
			g.Data = p.Snapshot()
		}
		if m.From != e.rt.ID() {
			p.SetProt(mem.Invalid)
		}
		p.Owner = m.From
		p.Copyset.Clear()
	} else {
		g.Data = p.Snapshot()
		if p.Prot() == mem.ReadWrite {
			p.SetProt(mem.ReadOnly)
		}
		p.Copyset.Add(int(m.From))
	}
	p.Unlock()
	if g.Data != nil {
		e.rt.Stats().PageTransfers.Add(1)
	}
	return g
}

// invalidate drops the local copy of pg; next is the page's next owner,
// kept as the hint.
func (e *Engine) invalidate(pg mem.PageID, next transport.NodeID) {
	p := e.rt.Table().Page(pg)
	p.Lock()
	if p.Prot() != mem.Invalid {
		p.SetProt(mem.Invalid)
		e.rt.Stats().Invalidations.Add(1)
	}
	p.Owner = next
	p.Unlock()
}

// install maps the frame g carries, or keeps the current one where
// there is none (the requester's copy was current, or it owns the
// page). Ownership travels with write grants.
func (e *Engine) install(pg mem.PageID, write bool, g *wire.Msg) {
	prot, self := mem.ReadOnly, e.rt.ID()
	if write {
		prot = mem.ReadWrite
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	if g != nil && g.Arg&wire.FlagNoData == 0 {
		p.Install(g.Data, prot)
	} else if p.Prot() < prot {
		p.SetProt(prot)
	}
	if write {
		p.Owner = self
		p.Copyset.Clear()
		p.Copyset.Add(int(self))
	} else if g != nil {
		p.Owner = g.From // the granter is the owner
	}
	p.Unlock()
}

// ---------------------------------------------------------------
// Broadcast: no managers and no hints.
// ---------------------------------------------------------------

// broadcastFault asks every node for the page, unless the hint names
// this node (a write upgrade of its read-only copy), when the
// transaction runs through its own owner path; a stale hint answers
// not-owner and the probe follows. The requester confirms installation
// to the granting owner, which holds the page's transaction until then.
func (e *Engine) broadcastFault(pg mem.PageID, write bool) error {
	kind := wire.KReadReq
	if write {
		kind = wire.KWriteReq
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	hint := p.Owner
	p.Unlock()
	var reply *wire.Msg
	var err error
	if hint != e.rt.ID() {
		reply, err = e.probe(kind, pg)
	} else if reply, err = e.rt.Call(&wire.Msg{Kind: kind, To: hint, Page: pg}); err == nil && reply.Kind == wire.KNotOwner {
		reply, err = e.probe(kind, pg)
	}
	if err != nil {
		return err
	}

	e.install(pg, write, reply)
	return e.rt.ReleaseToken(reply.From, reply.B)
}

// probe implements the broadcast locator: ask every other node in
// parallel and wait for every answer; exactly one (the owner)
// grants, the rest answer not-owner. A probe is never abandoned —
// the owner's grant transaction stays open until we confirm, which
// also pins ownership for the duration of the round, so a round
// yields at most one grant. Only an ownership transfer caught
// mid-flight can make the whole round answer not-owner, in which
// case the requester backs off and retries.
func (e *Engine) probe(kind wire.Kind, pg mem.PageID) (*wire.Msg, error) {
	deadline := time.Now().Add(e.rt.CallTimeout())
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sc: node %d: broadcast probe for page %d found no owner after %d rounds",
				e.rt.ID(), pg, attempt)
		}
		var msgs []*wire.Msg
		for i := 0; i < e.rt.N(); i++ {
			if to := transport.NodeID(i); to != e.rt.ID() {
				msgs = append(msgs, &wire.Msg{Kind: kind, To: to, Page: pg})
			}
		}
		replies, firstErr := e.rt.CallBatched(msgs)
		var grant *wire.Msg
		for _, reply := range replies {
			if reply != nil && reply.Kind != wire.KNotOwner {
				grant = reply
			}
		}
		if grant != nil {
			return grant, nil
		}
		if firstErr != nil {
			return nil, firstErr
		}
		time.Sleep(min(time.Duration(attempt+1)*time.Millisecond, 10*time.Millisecond))
	}
}

// ownerServe runs a broadcast page transaction at the owner, or
// answers not-owner. The transaction lock is held until the requester
// confirms installation.
func (e *Engine) ownerServe(m *wire.Msg) {
	write := m.Kind == wire.KWriteReq
	pg := m.Page
	p := e.rt.Table().Page(pg)
	notOwner := func() { _ = e.rt.Reply(m, &wire.Msg{Kind: wire.KNotOwner, Page: pg}) }

	// Fast pre-check without the transaction lock: a prober waits for
	// every node, so a non-owner answers at once.
	p.Lock()
	isOwner := p.Owner == e.rt.ID()
	p.Unlock()
	if !isOwner {
		notOwner()
		return
	}

	e.tx.Lock(pg)
	defer e.tx.Unlock(pg)
	// Ownership may have moved while we waited for the serializer.
	p.Lock()
	isOwner = p.Owner == e.rt.ID()
	hasCopy := p.Copyset.Has(int(m.From))
	var invalidatees []int
	if isOwner && write {
		invalidatees = p.Copyset.Except(int(m.From), int(e.rt.ID()))
	}
	p.Unlock()
	if !isOwner {
		notOwner()
		return
	}

	e.invalidateAll(pg, invalidatees, m.From)
	tok, ch := e.rt.NewToken()
	// grant performs ALL ownership/copyset bookkeeping under the page
	// lock before the grant leaves. It must not be repeated after
	// AwaitToken: by then our own application may have faulted the
	// page back, and a stale late assignment of Owner would orphan it.
	g := e.grant(m, write, write && hasCopy)
	g.B = tok
	_ = e.rt.Reply(m, g)
	_ = e.rt.AwaitToken(tok, ch, e.rt.CallTimeout())
}

// invalidateAll sends invalidations in parallel and waits for all
// acknowledgements. newOwner rides along so copy holders can update
// their owner hints.
func (e *Engine) invalidateAll(pg mem.PageID, nodes []int, newOwner transport.NodeID) {
	if e.cfg.BreakCoherence && len(nodes) > 0 && e.broke.CompareAndSwap(false, true) {
		// The seeded bug: silently skip one copyholder, leaving it
		// readable with stale contents.
		nodes = nodes[1:]
	}
	msgs := make([]*wire.Msg, len(nodes))
	for i, to := range nodes {
		msgs[i] = &wire.Msg{Kind: wire.KInval, To: transport.NodeID(to), Page: pg, Arg: uint64(newOwner)}
	}
	// A failure is a shutdown race; the transaction will be abandoned
	// by its token timeout if it mattered.
	_, _ = e.rt.CallBatched(msgs)
}

// handleInval drops the local copy. Arg carries the new owner for
// hint maintenance.
func (e *Engine) handleInval(m *wire.Msg) {
	e.invalidate(m.Page, transport.NodeID(m.Arg))
	_ = e.rt.Ack(m)
}

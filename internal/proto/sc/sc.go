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
// Transaction discipline: requests for a page are serialized at its
// manager (central/fixed) or current owner (dynamic/broadcast), and
// each data-granting transaction ends only when the requester
// confirms installation (Li & Hudak's confirmation message),
// implemented with nodecore tokens. See DESIGN.md §4.2.
package sc

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
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

// Request flag bits carried in Msg.Arg.
//
// argHasCopy is decided by the page's transaction serializer (from
// its authoritative copyset), never by the requester: a requester's
// own view ("my copy was valid when I faulted") can be falsified by
// an invalidation that lands while its request waits in the
// serializer's queue, and eliding the data then would map a stale
// frame read-write.
const (
	argForwarded uint64 = 1 << 1 // relayed by a manager; take the owner path
	argHasCopy   uint64 = 1 << 2 // requester holds a valid copy; data may be elided
)

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
	tx  *nodecore.TxLocks

	broke atomic.Bool // BreakCoherence already spent its one skip
}

// New creates the engine for one node.
func New(rt *nodecore.Runtime, cfg Config) *Engine {
	return &Engine{rt: rt, cfg: cfg, tx: nodecore.NewTxLocks(rt.Table().NumPages())}
}

// Name implements nodecore.Engine.
func (e *Engine) Name() string {
	n := "sc-invalidate/" + e.cfg.Locator.String()
	if e.cfg.Migrate {
		n = "migrate/" + e.cfg.Locator.String()
	}
	return n
}

// Register implements nodecore.Engine.
func (e *Engine) Register(rt *nodecore.Runtime) {
	rt.Handle(wire.KReadReq, e.handleReq)
	rt.Handle(wire.KWriteReq, e.handleReq)
	rt.Handle(wire.KInval, e.handleInval)
}

// Init implements nodecore.Engine: page p starts owned read-write by
// node p mod N, invalid elsewhere; every node's owner hint is exact.
func (e *Engine) Init() {
	e.rt.Table().EachLocked(func(p *mem.Page) {
		p.Owner = e.rt.HomeOf(p.ID())
		// Every node records the initial owner in its copyset view, so
		// a manager's authoritative copyset starts accurate even when
		// the manager is not the owner.
		p.Copyset.Add(int(p.Owner))
		if p.Owner == e.rt.ID() {
			p.SetProt(mem.ReadWrite)
		} else {
			p.SetProt(mem.Invalid)
		}
	})
}

func (e *Engine) managed() bool {
	return e.cfg.Locator == Central || e.cfg.Locator == Fixed
}

func (e *Engine) managerOf(pg mem.PageID) transport.NodeID {
	if e.cfg.Locator == Central {
		return e.cfg.CentralNode
	}
	return e.rt.HomeOf(pg)
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

func (e *Engine) fault(pg mem.PageID, write bool) error {
	kind := wire.KReadReq
	if write {
		kind = wire.KWriteReq
	}
	p := e.rt.Table().Page(pg)
	p.Lock()
	hint := p.Owner
	p.Unlock()

	// The request goes to the page's manager, or to the owner the hint
	// names. A broadcast requester has neither — unless the hint names
	// itself (a write upgrade of its read-only copy), when the
	// transaction runs through its own owner path; a stale hint answers
	// not-owner, which only broadcast mode ever does.
	to := hint
	if e.managed() {
		to = e.managerOf(pg)
	}
	var reply *wire.Msg
	var err error
	if e.cfg.Locator == Broadcast && hint != e.rt.ID() {
		reply, err = e.probe(kind, pg)
	} else if reply, err = e.rt.Call(&wire.Msg{Kind: kind, To: to, Page: pg}); err == nil && reply.Kind == wire.KNotOwner {
		reply, err = e.probe(kind, pg)
	}
	if err != nil {
		return err
	}

	grantProt := mem.ReadOnly
	if write {
		grantProt = mem.ReadWrite
	}
	p.Lock()
	if reply.Arg&wire.FlagNoData != 0 {
		p.SetProt(grantProt)
	} else {
		p.Install(reply.Data, grantProt)
	}
	if write {
		// Ownership travels with write grants.
		p.Owner = e.rt.ID()
		p.Copyset.Clear()
		p.Copyset.Add(int(e.rt.ID()))
	} else if !e.managed() {
		p.Owner = reply.From // the granter is the owner
	}
	p.Unlock()

	// Confirm installation to the transaction serializer.
	if tok := reply.B; tok != 0 {
		serializer := reply.From
		if e.managed() {
			serializer = e.managerOf(pg)
		}
		if err := e.rt.ReleaseToken(serializer, tok); err != nil {
			return err
		}
	}
	return nil
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
		backoff := time.Duration(attempt+1) * time.Millisecond
		if backoff > 10*time.Millisecond {
			backoff = 10 * time.Millisecond
		}
		time.Sleep(backoff)
	}
}

// ---------------------------------------------------------------
// Manager side (central/fixed locators).
// ---------------------------------------------------------------

// handleReq serves a read or write request: at the page's manager,
// unless a manager forwarded it here or the locator has none.
func (e *Engine) handleReq(m *wire.Msg) {
	write := m.Kind == wire.KWriteReq
	if e.managed() && m.Arg&argForwarded == 0 {
		e.managerTx(m, write)
		return
	}
	e.ownerServe(m, write)
}

// managerTx serializes and executes one page transaction at the
// page's manager.
func (e *Engine) managerTx(m *wire.Msg, write bool) {
	pg := m.Page
	e.tx.Lock(pg)
	defer e.tx.Unlock(pg)

	p := e.rt.Table().Page(pg)
	p.Lock()
	owner := p.Owner
	hasCopy := p.Copyset.Has(int(m.From))
	var invalidatees []int
	if write {
		invalidatees = p.Copyset.Except(int(m.From), int(owner))
	}
	p.Unlock()
	e.invalidateAll(pg, invalidatees, m.From)

	tok, ch := e.rt.NewToken()
	req := *m
	if write && hasCopy {
		req.Arg |= argHasCopy
	}
	if owner == e.rt.ID() {
		// The manager itself owns the page: grant directly.
		e.grantFromOwner(&req, write, tok)
	} else {
		req.Arg |= argForwarded
		req.B = tok
		if err := e.rt.Forward(&req, owner); err != nil {
			return
		}
	}
	if err := e.rt.AwaitToken(tok, ch, e.rt.CallTimeout()); err != nil {
		// The requester vanished (shutdown); abandon the transaction.
		return
	}

	p.Lock()
	if write {
		p.Owner = m.From
		p.Copyset.Clear()
		p.Copyset.Add(int(m.From))
	} else {
		p.Copyset.Add(int(m.From))
	}
	p.Unlock()
}

// invalidateAll sends invalidations in parallel and waits for all
// acknowledgements. newOwner rides along so copy holders can update
// their owner hints (dynamic locator semantics, harmless elsewhere).
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

// ---------------------------------------------------------------
// Owner side (dynamic/broadcast locators, and forwarded requests in
// managed mode).
// ---------------------------------------------------------------

// ownerServe handles a request that has arrived at (what may be) the
// page's owner. In managed mode the manager already serialized and
// the owner only produces the grant; in owner-serialized modes the
// owner runs the whole transaction.
func (e *Engine) ownerServe(m *wire.Msg, write bool) {
	if e.managed() {
		// Forwarded by the manager: grant using the manager's token.
		e.grantFromOwner(m, write, m.B)
		return
	}

	pg := m.Page
	p := e.rt.Table().Page(pg)

	// Dynamic locator: if a fault transaction of our own is in flight
	// for this page, the incoming request may have been forwarded to
	// us by a granter that already named us the new owner; queue
	// behind the install rather than bouncing around the chain. (A
	// fault's completion never depends on this handler, so the wait
	// cannot deadlock.) Broadcast mode must NOT wait here: a probe
	// round completes only when every node answers, so two mutually
	// probing faulting nodes would deadlock — they answer not-owner
	// immediately and the prober retries instead.
	p.Lock()
	if e.cfg.Locator == Dynamic && m.From != e.rt.ID() {
		// Never park a node's own returned request on its own fault
		// latch — the latch is held by exactly that fault.
		for p.LatchBusy() && p.Owner != e.rt.ID() {
			p.LatchWait()
		}
	}
	// Fast pre-check without the transaction lock: forward or reject
	// immediately if we are not the owner.
	isOwner := p.Owner == e.rt.ID()
	hint := p.Owner
	p.Unlock()
	if !isOwner {
		e.notOwner(m, hint, write)
		return
	}

	e.tx.Lock(pg)
	// Ownership may have moved while we waited for the serializer.
	p.Lock()
	isOwner = p.Owner == e.rt.ID()
	hint = p.Owner
	hasCopy := p.Copyset.Has(int(m.From))
	var invalidatees []int
	if isOwner && write {
		invalidatees = p.Copyset.Except(int(m.From), int(e.rt.ID()))
	}
	p.Unlock()
	if !isOwner {
		e.tx.Unlock(pg)
		e.notOwner(m, hint, write)
		return
	}

	e.invalidateAll(pg, invalidatees, m.From)
	req := *m
	if write && hasCopy {
		req.Arg |= argHasCopy
	}
	m = &req
	tok, ch := e.rt.NewToken()
	// grantFromOwner performs ALL ownership/copyset bookkeeping under
	// the page lock before the grant leaves. It must not be repeated
	// after AwaitToken: by then our own application may have faulted
	// the page back (a transaction at the new owner), and a stale
	// late assignment of Owner would orphan the page.
	e.grantFromOwner(m, write, tok)
	_ = e.rt.AwaitToken(tok, ch, e.rt.CallTimeout())
	e.tx.Unlock(pg)
}

// notOwner reacts to a misdirected request: dynamic mode forwards it
// along the probable-owner chain (updating the hint for write
// requests, per Li & Hudak); broadcast mode answers not-owner.
func (e *Engine) notOwner(m *wire.Msg, hint transport.NodeID, write bool) {
	if e.cfg.Locator == Broadcast {
		_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KNotOwner, Page: m.Page})
		return
	}
	hops := m.B + 1
	if hops > uint64(2*e.rt.N()+4) {
		// Transfer windows can bounce a request between the old and
		// new owner a few times; back off rather than spin the chain.
		time.Sleep(200 * time.Microsecond)
	}
	if hops > uint64(1000+64*e.rt.N()) {
		panic(fmt.Sprintf("sc: node %d: probable-owner chain for page %d exceeded %d hops (cycle?)",
			e.rt.ID(), m.Page, hops))
	}
	if hint == e.rt.ID() {
		// Our hint says us but we are not owner: transient state
		// during a transfer we initiated; requeue behind it.
		e.tx.Lock(m.Page)
		p := e.rt.Table().Page(m.Page)
		p.Lock()
		hint = p.Owner
		p.Unlock()
		e.tx.Unlock(m.Page)
	}
	// Deliberately NO speculative hint update here. Li & Hudak also
	// set probOwner := requester when forwarding a write request; in
	// this implementation that speculation can aim a hint at a node
	// that never completes its fault (it may retry, or its request
	// may be in flight behind ours), creating hint cycles that park a
	// node's own request on its own fault latch. Without speculation
	// every hint names a node that actually held ownership, so chains
	// follow the ownership succession strictly forward in time and
	// cannot cycle; the price is a slightly longer average chain,
	// which experiment E3 measures as the forwards column.
	fwd := *m
	fwd.B = hops
	_ = e.rt.Forward(&fwd, hint)
}

// grantFromOwner produces the grant for a serialized request: the
// owner downgrades (read) or invalidates (write) its own copy and
// ships the page unless the requester already holds a valid copy.
func (e *Engine) grantFromOwner(m *wire.Msg, write bool, tok uint64) {
	pg := m.Page
	p := e.rt.Table().Page(pg)
	grant := &wire.Msg{Page: pg, B: tok}
	p.Lock()
	if write {
		grant.Kind = wire.KWriteGrant
		if m.Arg&argHasCopy != 0 {
			grant.Arg |= wire.FlagNoData
		} else {
			grant.Data = p.Snapshot()
		}
		if m.From != e.rt.ID() {
			p.SetProt(mem.Invalid)
		}
		p.Owner = m.From
		p.Copyset.Clear()
	} else {
		grant.Kind = wire.KReadGrant
		grant.Data = p.Snapshot()
		if p.Prot() == mem.ReadWrite {
			p.SetProt(mem.ReadOnly)
		}
		p.Copyset.Add(int(m.From))
	}
	p.Unlock()
	if grant.Data != nil {
		e.rt.Stats().PageTransfers.Add(1)
	}
	_ = e.rt.Reply(m, grant)
}

// handleInval drops the local copy. Arg carries the new owner for
// hint maintenance.
func (e *Engine) handleInval(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	if p.Prot() != mem.Invalid {
		p.SetProt(mem.Invalid)
		e.rt.Stats().Invalidations.Add(1)
	}
	p.Owner = transport.NodeID(m.Arg)
	p.Unlock()
	_ = e.rt.Ack(m)
}

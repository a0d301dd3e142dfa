// Package lrc implements lazy release consistency (Keleher, Cox &
// Zwaenepoel, ISCA 1992), the TreadMarks protocol:
//
//   - Each node keeps a vector clock; the span between two local
//     synchronization operations is an *interval*. Closing an
//     interval (at a release, event set or barrier arrival) records a
//     diff of every page written in it and a *write notice* naming the
//     pages. The diffs come from nodecore's CloseWrites, which walks
//     the written list in page order: a close costs what the interval
//     wrote, whatever the heap holds.
//   - A lock grant carries exactly the write notices the acquirer has
//     not seen (vector-clock comparison); the acquirer invalidates
//     the noticed pages. The only data a grant moves is the granter's
//     own diffs of pages the acquirer has fetched from it before (the
//     lazy-hybrid variant): they wait in the acquirer's push cache.
//   - A fault on an invalidated page takes what the push cache holds
//     and fetches the rest from their writers (one round trip each,
//     all in one CallBatched round), then applies them in a
//     happens-before-consistent order.
//     Concurrent intervals write disjoint bytes (data-race freedom),
//     so their order is irrelevant; ordered intervals are applied in
//     causal order (sum of vector-clock components is a valid linear
//     extension of happens-before).
//   - A writer keeps its own diffs per page, in interval order, so
//     serving a request costs a binary search plus the diffs it
//     returns, however many intervals the range spans.
//   - Barriers make everyone's new intervals globally known; with
//     batching on, the arrive payloads also carry the closing
//     interval's diffs to the readers that fetched them before.
//
// Compared with eager RC (package erc), synchronization is cheap and
// data moves at most once, to nodes that actually touch it —
// experiment E7 reproduces that message-count gap.
//
// Deviation from TreadMarks noted in DESIGN.md: diffs are created
// when an interval closes rather than on first request; propagation
// (the expensive part) is identical. By default interval and diff
// logs are kept for the cluster lifetime; the optional barrier-time
// garbage collection (New's barrierGC, core.Config.LRCBarrierGC)
// bounds diff memory for long-running barrier programs, and the
// home-based variant (NewHomeBased) retains no diffs at all.
package lrc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// interval is one closed write interval of some node.
type interval struct {
	node  int32
	seq   uint32 // 1-based per node
	vc    vclock.VC
	pages []mem.PageID
}

// noticeRef identifies a write notice pending application to a page.
type noticeRef struct {
	node int32
	seq  uint32
}

// Engine is the per-node LRC protocol instance. With homeBased set
// it implements home-based LRC (HLRC, Zhou/Iftode/Li): interval and
// write-notice machinery are identical, but every interval's diffs
// are flushed to each page's statically assigned home at interval
// close, and an invalid page is revalidated with a single whole-page
// fetch from its home instead of per-writer diff fetches. Causality
// makes the home always sufficient: a write notice for (j, s) can
// only reach this node after writer j's release, and j flushed to
// the home before releasing. HLRC trades the homeless protocol's
// minimal data movement for bounded memory (no diff retention) and
// one-round-trip validation.
type Engine struct {
	dsync.NopHooks
	rt        *nodecore.Runtime
	gc        bool
	homeBased bool

	mu          sync.Mutex
	vc          vclock.VC
	log         [][]*interval            // log[node][seq-1]
	myDiffs     map[mem.PageID][]seqDiff // own diffs per page, seq-ascending; never changed in place
	missing     map[mem.PageID][]noticeRef
	lastBarSent uint32 // own-interval seq already distributed via a barrier
	lastBarPrev uint32 // own-interval seq distributed at the barrier before that

	// Interest-based diff push. Serving a diff request records the
	// requester's interest in the page; a later grant to that node
	// carries this node's diffs of the page that the acquirer has not
	// seen, and (with batching on) a barrier arrival carries the
	// closing interval's, saving the reader the fetch round trip.
	// Pushes are purely advisory: receivers cache them keyed by
	// (writer, seq, page) and the fetch path covers anything evicted.
	interest  map[mem.PageID]map[int32]struct{}
	pushCache map[pushKey][]byte
	pushOrder []pushKey // FIFO eviction order; may hold consumed keys
}

// pushKey identifies one pushed diff: interval (node, seq) and page.
type pushKey struct {
	node int32
	seq  uint32
	pg   mem.PageID
}

// pushCacheCap bounds the push cache; overflow evicts oldest-first.
const pushCacheCap = 1024

// New creates the engine for one node.
//
// With barrierGC enabled, every barrier release eagerly validates all
// locally pending write notices and then discards own diffs that were
// distributed at the previous barrier — by then every node has
// validated them, so no request for them can ever arrive. This bounds
// the diff cache for long-running barrier-synchronized programs (the
// role garbage collection plays in TreadMarks) at the cost of making
// barriers less lazy; it is off by default and measured as an
// ablation.
func New(rt *nodecore.Runtime, barrierGC bool) *Engine {
	return &Engine{
		rt:        rt,
		gc:        barrierGC,
		vc:        vclock.New(rt.N()),
		log:       make([][]*interval, rt.N()),
		myDiffs:   make(map[mem.PageID][]seqDiff),
		missing:   make(map[mem.PageID][]noticeRef),
		interest:  make(map[mem.PageID]map[int32]struct{}),
		pushCache: make(map[pushKey][]byte),
	}
}

// NewHomeBased creates the HLRC variant (see Engine).
func NewHomeBased(rt *nodecore.Runtime) *Engine {
	e := New(rt, false)
	e.homeBased = true
	return e
}

// DiffCacheSize reports the number of retained own-interval diffs,
// for tests and tooling.
func (e *Engine) DiffCacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, own := range e.myDiffs {
		n += len(own)
	}
	return n
}

// Name implements nodecore.Engine.
func (e *Engine) Name() string {
	if e.homeBased {
		return "hlrc"
	}
	return "lrc"
}

// Register implements nodecore.Engine.
func (e *Engine) Register(rt *nodecore.Runtime) {
	// Inline: serving a diff takes e.mu, which is never held across a
	// Call, and Replies.
	rt.HandleInline(wire.KDiffReq, e.handleDiffReq)
	if e.homeBased {
		rt.Handle(wire.KErcFlush, e.handleHomeFlush)
		rt.Handle(wire.KPageReq, e.handleHomePageReq)
	}
}

// Init implements nodecore.Engine: every replica starts valid
// (zeros) and read-only; there is no owner or home.
func (e *Engine) Init() {
	e.rt.Table().EachLocked(func(p *mem.Page) { p.SetProt(mem.ReadOnly) })
}

// ---------------------------------------------------------------
// Fault side
// ---------------------------------------------------------------

// ReadFault implements nodecore.Engine: fetch and apply the diffs of
// every pending write notice for the page.
func (e *Engine) ReadFault(pg mem.PageID) error { return e.validate(pg) }

// WriteFault implements nodecore.Engine: validate if needed, then
// twin and write locally.
func (e *Engine) WriteFault(pg mem.PageID) error {
	p := e.rt.Table().Page(pg)
	p.Lock()
	valid := p.Prot() >= mem.ReadOnly
	p.Unlock()
	if !valid {
		if err := e.validate(pg); err != nil {
			return err
		}
	}
	p.Lock()
	if p.MakeTwin() {
		e.rt.Stats().TwinCopies.Add(1)
	}
	p.SetProt(mem.ReadWrite)
	p.Unlock()
	return nil
}

// noticeDiff is a pending write notice being resolved: the sum of its
// interval's clock orders the application (byApplyOrder); diff comes
// from the push cache or from fetchDiffs.
type noticeDiff struct {
	noticeRef
	sum  uint64
	diff []byte
}

// byApplyOrder orders notices in a linear extension of happens-before:
// the sum of vector-clock components is monotone along causal edges,
// and writer and interval number break ties, so the order is total.
func byApplyOrder(a, b noticeDiff) int {
	return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.node, b.node), cmp.Compare(a.seq, b.seq))
}

// validate brings a page up to date with all locally known write
// notices. All notice insertion happens on this same application
// goroutine (sync hooks), so the pending set cannot grow
// concurrently.
func (e *Engine) validate(pg mem.PageID) error {
	if e.homeBased {
		return e.validateFromHome(pg)
	}
	e.mu.Lock()
	refs := e.missing[pg]
	delete(e.missing, pg)
	// Diffs the writer pushed ahead of time need no round trip. Used
	// entries are removed only after the whole validation succeeds, so
	// the error path can retry against an intact cache.
	var got, jobs []noticeDiff
	var usedKeys []pushKey
	for _, r := range refs {
		nd := noticeDiff{noticeRef: r, sum: vcSum(e.log[r.node][r.seq-1].vc)}
		k := pushKey{r.node, r.seq, pg}
		if d, ok := e.pushCache[k]; ok {
			nd.diff = d
			got = append(got, nd)
			usedKeys = append(usedKeys, k)
			continue
		}
		jobs = append(jobs, nd)
	}
	e.mu.Unlock()

	if err := e.fetchDiffs(pg, jobs); err != nil {
		// Restore the refs so a retry can still see them.
		e.mu.Lock()
		e.missing[pg] = append(refs, e.missing[pg]...)
		e.mu.Unlock()
		return err
	}
	got = append(got, jobs...)

	slices.SortFunc(got, byApplyOrder)

	p := e.rt.Table().Page(pg)
	p.Lock()
	for _, f := range got {
		if err := p.ApplyDiffLocked(f.diff, true); err != nil {
			p.Unlock()
			return fmt.Errorf("lrc: node %d: applying diff (%d,%d): %w", e.rt.ID(), f.node, f.seq, err)
		}
		e.rt.Stats().UpdatesApplied.Add(1)
	}
	if p.Prot() == mem.Invalid {
		p.SetProt(mem.ReadOnly)
	}
	p.Unlock()
	if len(usedKeys) > 0 {
		e.mu.Lock()
		for _, k := range usedKeys {
			delete(e.pushCache, k)
		}
		e.mu.Unlock()
	}
	return nil
}

// fetchDiffs fills in jobs' diffs of pg from their writers: one request
// a writer, covering the seq range wanted from it, all writers at once.
func (e *Engine) fetchDiffs(pg mem.PageID, jobs []noticeDiff) error {
	var msgs []*wire.Msg
	at := make(map[int32]int) // writer -> its request in msgs
	for _, j := range jobs {
		i, ok := at[j.node]
		if !ok {
			i, at[j.node] = len(msgs), len(msgs)
			msgs = append(msgs, &wire.Msg{Kind: wire.KDiffReq, To: transport.NodeID(j.node), Page: pg, Arg: uint64(j.seq), B: uint64(j.seq)})
			e.rt.Stats().DiffFetches.Add(1)
			e.rt.Tracer().Emit(trace.EvDiffFetch, j.node, 0, pg, -1, 0, 0)
		}
		msgs[i].Arg, msgs[i].B = min(msgs[i].Arg, uint64(j.seq)), max(msgs[i].B, uint64(j.seq))
	}
	replies, err := e.rt.CallBatched(msgs)
	if err != nil {
		return err
	}
	diffs := make([]map[uint32][]byte, len(replies))
	for i, reply := range replies {
		if diffs[i], err = decodeDiffList(reply.Data); err != nil {
			return fmt.Errorf("lrc: node %d: diff reply from %d: %w", e.rt.ID(), reply.From, err)
		}
	}
	for k := range jobs {
		j := &jobs[k]
		d, ok := diffs[at[j.node]][j.seq]
		if !ok {
			return fmt.Errorf("lrc: node %d: writer %d did not return diff for page %d interval %d",
				e.rt.ID(), j.node, pg, j.seq)
		}
		j.diff = d
	}
	return nil
}

func vcSum(v vclock.VC) uint64 {
	var s uint64
	for _, c := range v {
		s += uint64(c)
	}
	return s
}

// ---------------------------------------------------------------
// Interval machinery
// ---------------------------------------------------------------

// closeInterval ends the current write interval if any page was
// written: it ticks the vector clock, records per-page diffs, and
// appends the interval (with its write notices) to the local log. It
// returns the interval, or nil if nothing was written.
func (e *Engine) closeInterval() *interval {
	dirty := e.rt.CloseWrites()
	if len(dirty) == 0 {
		return nil
	}
	if e.homeBased {
		// HLRC: push every diff to its page's home before the release
		// or barrier proceeds; no diffs are retained locally. The
		// flushes share frames per home under batching.
		var msgs []*wire.Msg
		for _, d := range dirty {
			if home := e.rt.HomeOf(d.Page); home != e.rt.ID() { // else: our copy is the home copy
				msgs = append(msgs, &wire.Msg{Kind: wire.KErcFlush, To: home, Page: d.Page, Data: d.Diff})
			}
		}
		_, _ = e.rt.CallBatched(msgs)
	}
	e.mu.Lock()
	me := int(e.rt.ID())
	seq := e.vc.Tick(me)
	iv := &interval{node: e.rt.ID(), seq: seq, vc: e.vc.Copy()}
	for _, d := range dirty {
		iv.pages = append(iv.pages, d.Page)
		if !e.homeBased {
			e.myDiffs[d.Page] = append(e.myDiffs[d.Page], seqDiff{seq, d.Diff})
		}
	}
	e.log[me] = append(e.log[me], iv)
	if uint32(len(e.log[me])) != seq {
		panic(fmt.Sprintf("lrc: node %d: interval log out of sync: len %d, seq %d", me, len(e.log[me]), seq))
	}
	e.mu.Unlock()
	return iv
}

// insert adds a remote interval to the log if unknown, invalidating
// its pages and queueing their write notices. Caller holds e.mu.
func (e *Engine) insert(iv *interval) {
	node := int(iv.node)
	if iv.node == e.rt.ID() {
		return // our own intervals are always known
	}
	have := uint32(len(e.log[node]))
	if iv.seq <= have {
		return // duplicate
	}
	if iv.seq != have+1 {
		panic(fmt.Sprintf("lrc: node %d: non-contiguous interval (%d,%d): have %d",
			e.rt.ID(), iv.node, iv.seq, have))
	}
	e.log[node] = append(e.log[node], iv)
	e.vc.Merge(iv.vc)
	// Fold the protocol clock into the trace clock so events after
	// this acquire causally dominate the releaser's traced events.
	e.rt.Tracer().MergeClock(iv.vc)
	for _, pg := range iv.pages {
		e.rt.Stats().WriteNotices.Add(1)
		if e.homeBased && e.rt.HomeOf(pg) == e.rt.ID() {
			// The home already holds the flushed data (the writer
			// flushed before releasing), so its copy stays valid.
			continue
		}
		e.missing[pg] = append(e.missing[pg], noticeRef{iv.node, iv.seq})
		p := e.rt.Table().Page(pg)
		p.Lock()
		if p.Prot() != mem.Invalid {
			p.SetProt(mem.Invalid)
			e.rt.Stats().Invalidations.Add(1)
		}
		p.Unlock()
	}
}

// unseenBy collects every known interval the holder of vc lacks, in
// per-node seq order. Caller holds e.mu.
func (e *Engine) unseenBy(vc vclock.VC) []*interval {
	var out []*interval
	for node := range e.log {
		from := vc.At(node)
		for s := from; s < uint32(len(e.log[node])); s++ {
			out = append(out, e.log[node][s])
		}
	}
	return out
}

// ---------------------------------------------------------------
// Synchronization hooks
// ---------------------------------------------------------------

// must panics on a payload from a peer that does not decode.
func (e *Engine) must(err error, payload string) {
	if err != nil {
		panic(fmt.Sprintf("lrc: node %d: bad %s: %v", e.rt.ID(), payload, err))
	}
}

// AcquirePayload implements dsync.Hooks: send our vector clock so
// the granter can compute exactly the unseen intervals.
func (e *Engine) AcquirePayload(int32) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vc.Encode(nil)
}

// GrantPayload implements dsync.Hooks: ship the write notices of
// every interval the acquirer has not seen, and this node's own diffs
// in them of pages the acquirer has fetched from it before, at most
// pushCacheCap of them (more would only be evicted on arrival). A
// grant to this node itself is the empty list without a look at the
// log: a node has seen its own log, and interest never names it.
func (e *Engine) GrantPayload(_ int32, to transport.NodeID, _ dsync.Mode, reqPayload []byte) []byte {
	if to == e.rt.ID() {
		return noIntervals
	}
	acqVC, _, err := vclock.Decode(reqPayload)
	e.must(err, "acquire payload")
	e.mu.Lock()
	defer e.mu.Unlock()
	ivs := e.unseenBy(acqVC)
	var pushes []pushEntry
	for _, iv := range ivs {
		if iv.node != e.rt.ID() {
			continue
		}
		for _, pg := range iv.pages {
			if _, ok := e.interest[pg][to]; ok && len(pushes) < pushCacheCap {
				pushes = e.pushLocked(pushes, to, pg, iv.seq)
			}
		}
	}
	return encodeGrant(ivs, pushes)
}

// OnGranted implements dsync.Hooks: insert the received notices and
// cache the granter's diffs under the same lock, so the acquirer's
// first fault finds them. An empty grant takes no lock.
func (e *Engine) OnGranted(_ int32, _ dsync.Mode, payload []byte) {
	ivs, pushes, err := decodeGrant(payload)
	e.must(err, "grant payload")
	if len(ivs) == 0 && len(pushes) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, iv := range ivs {
		e.insert(iv)
	}
	e.cachePushesLocked(pushes)
}

// OnRelease implements dsync.Hooks: close the current interval. No
// data or notices move — that is the laziness; the next grant
// carries them.
func (e *Engine) OnRelease(int32) { e.closeInterval() }

// OnEventSet implements dsync.Hooks: firing an event is a release —
// the waiters' grants will carry the closed interval's notices.
func (e *Engine) OnEventSet(int32) { e.closeInterval() }

// BarrierArrive implements dsync.Hooks: close the interval and send
// our own not-yet-broadcast intervals to the barrier manager. With
// batching on, the closing interval's interest-targeted diffs ride
// the same arrive payload; the release fans them out to their readers
// (see BarrierReleaseFor), so the whole push costs zero messages.
func (e *Engine) BarrierArrive(int32) []byte {
	iv := e.closeInterval()
	e.mu.Lock()
	defer e.mu.Unlock()
	var entries []pushEntry
	if iv != nil && e.rt.BatchingEnabled() {
		for _, pg := range iv.pages {
			for node := range e.interest[pg] {
				entries = e.pushLocked(entries, node, pg, iv.seq)
			}
		}
	}
	me := int(e.rt.ID())
	var own []*interval
	for s := e.lastBarSent; s < uint32(len(e.log[me])); s++ {
		own = append(own, e.log[me][s])
	}
	e.lastBarSent = uint32(len(e.log[me]))
	return encodeBarrierPayload(encodeIntervals(own), entries)
}

// BarrierMerge implements dsync.Hooks: concatenate interval sets
// (associative; duplicates are dropped at insert time) and the
// piggybacked push entries.
func (e *Engine) BarrierMerge(_ int32, payloads [][]byte) []byte {
	var all []*interval
	var pushes []pushEntry
	for _, p := range payloads {
		ivsRaw, pes, err := decodeBarrierPayload(p)
		e.must(err, "barrier payload")
		ivs, err := decodeIntervals(ivsRaw)
		e.must(err, "barrier payload")
		all = append(all, ivs...)
		pushes = append(pushes, pes...)
	}
	// Keep per-node seq order so receivers can insert contiguously.
	sort.Slice(all, func(a, b int) bool {
		if all[a].node != all[b].node {
			return all[a].node < all[b].node
		}
		return all[a].seq < all[b].seq
	})
	return encodeBarrierPayload(encodeIntervals(all), pushes)
}

// BarrierReleaseFor implements dsync.ReleaseFilter: keep the interval
// section for everyone but strip the push entries down to the ones
// addressed to the receiving node, so release bytes do not scale with
// other readers' diffs.
func (e *Engine) BarrierReleaseFor(_ int32, to transport.NodeID, merged []byte) []byte {
	ivsRaw, pushes, err := decodeBarrierPayload(merged)
	e.must(err, "merged barrier payload")
	if len(pushes) == 0 {
		return merged
	}
	var mine []pushEntry
	for _, pe := range pushes {
		if pe.reader == int32(to) {
			mine = append(mine, pe)
		}
	}
	return encodeBarrierPayload(ivsRaw, mine)
}

// OnBarrierRelease implements dsync.Hooks: everyone learns
// everything produced before the barrier. With barrier GC on, all
// pending notices are validated eagerly and diffs that every node
// validated by the previous barrier are discarded.
func (e *Engine) OnBarrierRelease(_ int32, payload []byte) {
	ivsRaw, pushes, err := decodeBarrierPayload(payload)
	e.must(err, "barrier release payload")
	ivs, err := decodeIntervals(ivsRaw)
	e.must(err, "barrier release payload")
	e.mu.Lock()
	for _, iv := range ivs {
		e.insert(iv)
	}
	// Piggybacked diffs land in the push cache under the same lock
	// that queued their write notices, as a grant's do (OnGranted).
	e.cachePushesLocked(pushes)
	if !e.gc {
		e.mu.Unlock()
		return
	}
	var pages []mem.PageID
	for pg := range e.missing {
		pages = append(pages, pg)
	}
	safe := e.lastBarPrev
	e.lastBarPrev = e.lastBarSent
	e.mu.Unlock()

	// Eager validation: after this, no pending notice on this node
	// refers to any interval distributed at this or earlier barriers.
	for _, pg := range pages {
		if err := e.validate(pg); err != nil {
			panic(fmt.Sprintf("lrc: node %d: barrier validation of page %d: %v", e.rt.ID(), pg, err))
		}
	}
	// Discard own diffs everyone has validated by now: intervals
	// distributed at the previous barrier were validated during its
	// release, which completed before anyone arrived at this one. A
	// page's cut is a prefix, and what is kept is copied: handleDiffReq
	// encodes a subslice after Unlock, so no entry may change in place.
	e.mu.Lock()
	for pg, own := range e.myDiffs {
		if k := sort.Search(len(own), func(i int) bool { return own[i].seq > safe }); k == len(own) {
			delete(e.myDiffs, pg)
		} else if k > 0 {
			e.myDiffs[pg] = append([]seqDiff(nil), own[k:]...)
		}
	}
	e.mu.Unlock()
}

// ---------------------------------------------------------------
// Diff service
// ---------------------------------------------------------------

// handleDiffReq serves our own diffs for one page across the full-width
// seq range [Arg, B], and records the requester's interest in the page
// so future diffs for it can be pushed instead of fetched.
func (e *Engine) handleDiffReq(m *wire.Msg) {
	e.mu.Lock()
	own := e.myDiffs[m.Page]
	i := sort.Search(len(own), func(i int) bool { return uint64(own[i].seq) >= m.Arg })
	j := i
	for j < len(own) && uint64(own[j].seq) <= m.B {
		j++
	}
	out := own[i:j]
	if !e.homeBased && m.From != e.rt.ID() {
		set := e.interest[m.Page]
		if set == nil {
			set = make(map[int32]struct{})
			e.interest[m.Page] = set
		}
		set[int32(m.From)] = struct{}{}
	}
	e.mu.Unlock()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Page: m.Page, Data: encodeDiffList(out)})
}

// pushLocked appends this node's diff of pg in its interval seq,
// addressed to reader, if it still holds it. Caller holds e.mu.
func (e *Engine) pushLocked(pushes []pushEntry, reader int32, pg mem.PageID, seq uint32) []pushEntry {
	own := e.myDiffs[pg]
	i := sort.Search(len(own), func(i int) bool { return own[i].seq >= seq })
	if i == len(own) || own[i].seq != seq {
		return pushes
	}
	e.rt.Stats().DiffPushes.Add(1)
	e.rt.Tracer().Emit(trace.EvDiffPush, reader, 0, pg, -1, uint64(seq), 0)
	return append(pushes, pushEntry{reader: reader, writer: e.rt.ID(), seq: seq, pg: pg, diff: own[i].diff})
}

// cachePushesLocked caches the pushed diffs addressed to this node,
// dropping duplicates and evicting oldest-first past the cap. validate
// deletes the keys it uses from pushCache only; once pushOrder is twice
// the cap, it is cut down to the keys still cached. Caller holds e.mu.
func (e *Engine) cachePushesLocked(pushes []pushEntry) {
	for _, pe := range pushes {
		k := pushKey{node: pe.writer, seq: pe.seq, pg: pe.pg}
		if _, ok := e.pushCache[k]; ok || pe.reader != e.rt.ID() || pe.writer == e.rt.ID() {
			continue
		}
		e.pushCache[k] = pe.diff
		e.pushOrder = append(e.pushOrder, k)
	}
	for len(e.pushCache) > pushCacheCap && len(e.pushOrder) > 0 {
		delete(e.pushCache, e.pushOrder[0])
		e.pushOrder = e.pushOrder[1:]
	}
	if len(e.pushOrder) > 2*pushCacheCap {
		live := make([]pushKey, 0, len(e.pushCache))
		for _, k := range e.pushOrder {
			if _, ok := e.pushCache[k]; ok {
				live = append(live, k)
			}
		}
		e.pushOrder = live
	}
}

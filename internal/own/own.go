// Package own is the system's one ownership protocol: IVY's improved
// manager (Li & Hudak, TOCS 1989 §4) with the owner serializing
// requests, so nothing confirms to the manager. Locks (dsync) and sc's
// managed and dynamic pages are instances of it (DESIGN.md §4.13).
//
// A resource is a token. Its manager keeps only tail, the last
// exclusive requester, and forwards each request there; with no
// manager a request starts at the node's owner hint. The owner keeps
// the copyset of read copies and a FIFO of forwarded requests and this
// node's goroutines; a request that reaches a node after it handed the
// token on is relayed along succ. An exclusive request displaces the
// read copies in an invalidation round run through CallBatched on a
// goroutine of its own. A node holds the resource from its grant's
// install until Release: an invalidation of its copy is acked once no
// hold is left on it, and forwarded requests wait their turn.
package own

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nodecore"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Mode distinguishes acquisition modes. A request carries it in Arg.
type Mode uint64

const (
	// Exclusive grants one holder with write intent, and the token.
	Exclusive Mode = 0
	// Shared grants any number of read copies.
	Shared Mode = 1
)

// Tok is where a node stands with respect to a resource's token.
type Tok uint8

const (
	Away    Tok = iota // another node owns the token
	Waiting            // this node's exclusive request is out
	Owned              // the token is here
)

// Resource is what an instance supplies: how its messages carry it,
// what a grant carries and how it is installed, and what ending a read
// copy does. Its methods run without the State's mutex, except Drop.
type Resource interface {
	// Request builds a request for id in mode: its kind, the field
	// that carries id, its payload.
	Request(id int32, mode Mode) *wire.Msg
	// Grant builds the owner's reply to req, another node's request
	// for id in mode. hasCopy: the copyset lists the requester, so the
	// copy it holds is current.
	Grant(id int32, req *wire.Msg, mode Mode, hasCopy bool) *wire.Msg
	// Install runs at the requester before the hold its grant starts
	// is counted; grant is nil when the grant needed no message. start
	// is when Acquire began, or zero for a grant that neither queued
	// nor sent anything: that fast path reads no clock.
	Install(id int32, mode Mode, grant *wire.Msg, start time.Time)
	// Invalidation builds the owner's request that a reader end its
	// copy of id: its kind and the field that carries id.
	Invalidation(id int32) *wire.Msg
	// Drop ends this node's copy of id, under the State's mutex,
	// before the invalidation is acked; next, the node the token goes
	// to, is the new owner hint.
	Drop(id int32, next transport.NodeID)
}

// Config places an instance's resources.
type Config struct {
	// Manager returns id's manager, or -1 when a request starts at the
	// owner hint.
	Manager func(id int32) transport.NodeID
	// Timeout bounds a goroutine's wait in the queue and a request.
	Timeout time.Duration
	// BreakCoherence skips exactly one reader of the first invalidation
	// round, leaving it a stale readable copy: a seeded protocol bug
	// for the race/SC checker; never set outside tests.
	BreakCoherence bool
}

// Protocol runs the protocol for one instance on one node.
type Protocol struct {
	rt    *nodecore.Runtime
	res   Resource
	cfg   Config
	broke atomic.Bool // BreakCoherence already spent its one skip
}

// New binds an instance to a node's runtime. Its request and
// invalidation kinds are the instance's to register, with handlers
// that call Serve and Invalidated.
func New(rt *nodecore.Runtime, res Resource, cfg Config) *Protocol {
	return &Protocol{rt: rt, res: res, cfg: cfg}
}

// State is one node's view of one resource: the manager's tail, the
// owner's copyset and succ, and every node's holds, read copy and FIFO
// of forwarded requests and local goroutines.
type State struct {
	mu   sync.Mutex
	tail transport.NodeID // manager only: the token's owner, or its next

	tok     Tok
	succ    transport.NodeID   // the node this one last handed the token to, or a later owner it heard of
	copyset []transport.NodeID // owner: nodes granted a read copy
	busy    bool               // owner: an invalidation round is running
	copy    bool               // a read copy: shared holds are local unless invalidated
	invals  []*wire.Msg        // invalidations to ack when the last hold on the copy ends
	asking  bool               // one of this node's goroutines has a request out

	held int // holds by this node's goroutines, all in mode
	mode Mode
	q    []waiter
}

// Init places a resource's token at owner, which is also the manager's
// tail and every node's first hint. self is this node.
func (st *State) Init(self, owner transport.NodeID) {
	st.tail, st.succ, st.tok = owner, owner, Away
	if owner == self {
		st.tok = Owned
	}
}

// View is a copy of a State, for tests.
type View struct {
	Tok                  Tok
	Held, Queued, Invals int
	Asking, Busy         bool
	Copyset              []transport.NodeID
}

// View copies the State under its mutex.
func (st *State) View() View {
	st.mu.Lock()
	defer st.mu.Unlock()
	return View{st.tok, st.held, len(st.q), len(st.invals), st.asking, st.busy,
		append([]transport.NodeID(nil), st.copyset...)}
}

// waiter is a forwarded request (m != nil) or a goroutine of this node.
type waiter struct {
	mode    Mode
	m       *wire.Msg
	wake    chan step
	hasCopy bool // an exclusive request from a node the copyset lists
}

type step uint8

const (
	stepHold step = iota // the hold is counted
	stepAsk              // ask for the token or a copy
)

// effects are what advance decides under the State's mutex; apply
// sends them after it is released.
type effects struct {
	acks    []*wire.Msg
	relays  []*wire.Msg // to succ
	succ    transport.NodeID
	grants  []waiter // forwarded requests the owner answers
	handoff *waiter  // exclusive, once readers are invalidated
	readers []transport.NodeID
}

// canHold reports whether a goroutine of this node may hold the
// resource in mode now, with no message.
func (st *State) canHold(mode Mode) bool {
	owner := st.tok == Owned && !st.busy
	if mode == Shared {
		return (st.held == 0 || st.mode == Shared) && (owner || st.copy && len(st.invals) == 0)
	}
	return owner && st.held == 0 && len(st.copyset) == 0
}

func (st *State) hold(mode Mode) {
	st.held++
	st.mode = mode
}

// advance serves the queue's head for as long as it can. A local
// goroutine waits its turn behind forwarded requests: a re-acquire
// never jumps the queue.
func (p *Protocol) advance(st *State, fx *effects) {
	for len(st.q) > 0 {
		w := &st.q[0]
		owner := st.tok == Owned && !st.busy
		switch {
		case w.m != nil && st.tok == Away:
			fx.relays = append(fx.relays, w.m)
			fx.succ = st.succ
		case w.m == nil && st.canHold(w.mode):
			st.hold(w.mode)
			w.wake <- stepHold
		case w.m != nil && w.mode == Shared && owner && st.canHold(Shared):
			st.copyset = append(st.copyset, w.m.From)
			fx.grants = append(fx.grants, *w)
		case w.mode == Exclusive && owner && st.held == 0:
			var readers []transport.NodeID
			for _, r := range st.copyset {
				if w.m == nil || r != w.m.From { // a requester's copy ends with its request
					readers = append(readers, r)
				}
			}
			w.hasCopy = len(readers) < len(st.copyset)
			if len(readers) == 0 {
				st.tok, st.succ = Away, w.m.From
				st.copyset = st.copyset[:0]
				fx.grants = append(fx.grants, *w)
			} else {
				st.busy = true
				hw := *w
				fx.handoff, fx.readers = &hw, readers
			}
		case w.m == nil && st.startAsk(w.mode):
			w.wake <- stepAsk
		default:
			return
		}
		// Shift rather than reslice: the queue keeps its array.
		st.q = st.q[:copy(st.q, st.q[1:])]
	}
}

// startAsk marks a request from this node as out if one may go now:
// only one at a time, and an exclusive one only once the node's own
// holds on a read copy have ended.
func (st *State) startAsk(mode Mode) bool {
	if st.tok != Away || st.asking || mode == Exclusive && st.held > 0 {
		return false
	}
	st.asking = true
	if mode == Exclusive {
		st.tok, st.copy = Waiting, false
	}
	return true
}

// apply sends what advance decided. A grant is the reply to the
// forwarded request, so it completes the requester's own call.
func (p *Protocol) apply(id int32, st *State, fx *effects) {
	for _, m := range fx.acks {
		_ = p.rt.Ack(m)
	}
	for _, m := range fx.relays {
		fwd := *m
		fwd.B++
		_ = p.rt.Forward(&fwd, fx.succ)
	}
	for _, g := range fx.grants {
		_ = p.rt.Reply(g.m, p.res.Grant(id, g.m, g.mode, g.hasCopy))
	}
	if fx.handoff != nil {
		// The round blocks on the readers' acks: never inline, never
		// inside Release. It ends when its acks are in or at shutdown.
		go p.handoff(id, st, fx.handoff, fx.readers)
	}
}

// Acquire obtains resource id in mode: at once where the token or a
// valid read copy is, else by a request; its grant is installed before
// Acquire returns. The hold lasts until Release.
func (p *Protocol) Acquire(st *State, id int32, mode Mode) error {
	st.mu.Lock()
	if len(st.q) == 0 && st.canHold(mode) {
		st.hold(mode)
		st.mu.Unlock()
		p.res.Install(id, mode, nil, time.Time{})
		return nil
	}
	start := time.Now()
	if len(st.q) == 0 && st.startAsk(mode) {
		st.mu.Unlock()
		return p.ask(st, id, mode, start)
	}
	w := waiter{mode: mode, wake: make(chan step, 1)}
	st.q = append(st.q, w)
	var fx effects
	p.advance(st, &fx)
	st.mu.Unlock()
	p.apply(id, st, &fx)
	s, err := p.await(id, st, w.wake)
	switch {
	case err != nil:
		return err
	case s == stepAsk:
		return p.ask(st, id, mode, start)
	}
	p.res.Install(id, mode, nil, start)
	return nil
}

// await waits for a queued goroutine's next step, for at most the
// configured timeout in the queue.
func (p *Protocol) await(id int32, st *State, wake chan step) (step, error) {
	select {
	case s := <-wake:
		return s, nil
	default:
	}
	timer := time.NewTimer(p.cfg.Timeout)
	defer timer.Stop()
	select {
	case s := <-wake:
		return s, nil
	case <-p.rt.Done():
		return 0, fmt.Errorf("node %d: shutdown while queued", p.rt.ID())
	case <-timer.C:
	}
	var fx effects
	st.mu.Lock()
	for i, x := range st.q {
		if x.wake == wake {
			st.q = append(st.q[:i], st.q[i+1:]...)
			p.advance(st, &fx)
			st.mu.Unlock()
			p.apply(id, st, &fx)
			return 0, fmt.Errorf("node %d: queued for %v", p.rt.ID(), p.cfg.Timeout)
		}
	}
	st.mu.Unlock()
	select { // advance took it off the queue: its step is coming
	case s := <-wake:
		return s, nil
	case <-p.rt.Done():
		return 0, fmt.Errorf("node %d: shutdown while queued", p.rt.ID())
	}
}

// ask obtains the token or a read copy through the manager, or along
// the owner hint where there is none. The grant is installed before
// any other goroutine of this node can hold the resource.
func (p *Protocol) ask(st *State, id int32, mode Mode, start time.Time) error {
	req := p.res.Request(id, mode)
	req.Arg = uint64(mode)
	if req.To = p.cfg.Manager(id); req.To < 0 {
		st.mu.Lock()
		req.To, req.B = st.succ, 1
		st.mu.Unlock()
	}
	reply, err := p.rt.CallT(req, p.cfg.Timeout)
	if err == nil {
		p.res.Install(id, mode, reply, start)
	}
	var fx effects
	st.mu.Lock()
	st.asking = false
	// On error an exclusive request stays out (Waiting): its grant may
	// still come, and a second request would break the manager's chain.
	if err == nil {
		if mode == Exclusive {
			st.tok = Owned
		} else {
			st.succ = reply.From // the granter owns the token
		}
		st.copy = mode == Shared // invalidated already if invals is not empty
		st.hold(mode)
	}
	p.advance(st, &fx)
	st.mu.Unlock()
	p.apply(id, st, &fx)
	return err
}

// Holding reports whether a goroutine of this node holds the resource.
func (st *State) Holding() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.held > 0
}

// Release ends one of this node's holds on id, in either mode, and
// reports false if there was none. It sends no message of its own: an
// invalidation ack or a grant that waited for the hold to end goes out
// as a reply.
func (p *Protocol) Release(st *State, id int32) bool {
	var fx effects
	st.mu.Lock()
	if st.held == 0 {
		st.mu.Unlock()
		return false
	}
	st.held--
	if st.held == 0 && len(st.invals) > 0 {
		st.copy = false
		p.res.Drop(id, st.succ)
		fx.acks, st.invals = st.invals, nil
	}
	p.advance(st, &fx)
	st.mu.Unlock()
	p.apply(id, st, &fx)
	return true
}

// ReleaseIdle ends one of this node's holds, as Release does, if
// nothing waits on it: no request or goroutine is queued and no
// invalidation is deferred, so ending it sends nothing. Otherwise it
// reports false and the hold stays.
func (p *Protocol) ReleaseIdle(st *State) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.held == 0 || len(st.q) > 0 || len(st.invals) > 0 {
		return false
	}
	st.held--
	return true
}

// Serve handles request m for id at its manager (B == 0) or at a node
// it was forwarded or relayed to. It only takes the State's mutex and
// sends: an inline handler may call it.
func (p *Protocol) Serve(st *State, id int32, m *wire.Msg) {
	mode := Mode(m.Arg)
	st.mu.Lock()
	if tail := st.tail; m.B == 0 {
		if tail == m.From {
			// The node already owns or awaits the token, so it sends no
			// request: only a broken or hostile peer does. Dropped, as
			// nodecore drops out-of-range ids.
			st.mu.Unlock()
			return
		}
		if mode == Exclusive {
			st.tail = m.From
		}
		if tail != p.rt.ID() {
			st.mu.Unlock()
			fwd := *m
			fwd.B = 1
			_ = p.rt.Forward(&fwd, tail)
			return
		}
	}
	var fx effects
	st.q = append(st.q, waiter{mode: mode, m: m})
	p.advance(st, &fx)
	st.mu.Unlock()
	p.apply(id, st, &fx)
}

// Invalidated handles the owner's invalidation m of this node's copy
// of id: it acks once no hold is on the copy. A copy still on its way
// (a shared request is out) is dropped after the hold its grant
// starts. Inline handlers may call it.
func (p *Protocol) Invalidated(st *State, id int32, m *wire.Msg) {
	st.mu.Lock()
	st.succ = transport.NodeID(m.Arg)
	if st.copy && st.held > 0 || !st.copy && st.asking && st.tok == Away {
		st.invals = append(st.invals, m)
		st.mu.Unlock()
		return
	}
	st.copy = false
	p.res.Drop(id, st.succ)
	st.mu.Unlock()
	_ = p.rt.Ack(m)
}

// handoff collects an ack from every reader through CallBatched,
// asking again those still holding past the call timeout, then gives
// the resource to w: the token to a forwarded request, an exclusive
// hold to a goroutine of this node.
func (p *Protocol) handoff(id int32, st *State, w *waiter, readers []transport.NodeID) {
	next := p.rt.ID()
	if w.m != nil {
		next = w.m.From
	}
	if p.cfg.BreakCoherence && p.broke.CompareAndSwap(false, true) {
		// The seeded bug: this reader keeps a stale readable copy.
		readers = readers[1:]
	}
	for len(readers) > 0 {
		msgs := make([]*wire.Msg, len(readers))
		for i, r := range readers {
			msgs[i] = p.res.Invalidation(id)
			msgs[i].To, msgs[i].Arg = r, uint64(next) // the next owner: a hint
		}
		replies, _ := p.rt.CallBatched(msgs)
		select {
		case <-p.rt.Done():
			return
		default:
		}
		// Not those that acked: one may be asking for a new copy, which
		// waits on this round.
		left := readers[:0]
		for i, r := range readers {
			if replies[i] == nil {
				left = append(left, r)
			}
		}
		readers = left
	}
	var fx effects
	st.mu.Lock()
	st.busy = false
	st.copyset = st.copyset[:0]
	if w.m != nil {
		st.tok, st.succ = Away, w.m.From
		fx.grants = []waiter{*w}
	} else {
		st.hold(Exclusive)
		w.wake <- stepHold
	}
	p.advance(st, &fx)
	st.mu.Unlock()
	p.apply(id, st, &fx)
}

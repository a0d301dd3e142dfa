package simnet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The link. A network with a fault plan runs a go-back-N ARQ on every
// directed pair beneath its injector, so the nodes above it see what a
// TCP connection gives them: every message delivered once, in send
// order, or the run stuck on a partition that never heals. The
// protocols above run exactly as they do fault-free.
//
// Each frame carries a link header ahead of the encoded message: its
// type, its round, its sequence number on the pair, and the cumulative
// acknowledgement of the reverse pair. The receiver delivers the next
// sequence number and discards anything else. It acknowledges every
// data frame on receipt, before delivering it, so the round trip the
// sender measures is the link's and not a handler's, and it answers a
// gap with a NACK. The sender keeps what is unacknowledged and goes
// back to the oldest of it when a NACK comes or its timer runs out. It
// learns of a loss only that way: the injector drops ack and NACK
// frames like any other, and tells nobody.
//
// Each go-back starts a new round, and data frames carry the round
// they were sent in. A NACK echoes the round of the frame that drew
// it, and only a NACK of the current round sends the sender back, so
// the frames of an old round still arriving behind the gap cost no
// second go-back. The receiver NACKs when a gap opens, when frames of
// a new round arrive behind it (the gap's first frame was lost again),
// and after every second frame it discards without one (that NACK was
// lost). Since everything behind a gap is discarded, the sender keeps
// at most a window of frames in flight; it closes to lossWindow on a
// loss and opens by one per frame acknowledged, so a burst on a lossy
// pair costs a few retransmissions per loss, not the whole burst.
//
// Frames of one pair leave in the order they are queued: under the
// pair's lock, and transmitted by one goroutine at a time (drain),
// which holds no lock while the injector delivers — a delivery may run
// handlers that send on this very pair.

// Frame types, the first byte of the link header.
const (
	frameData byte = iota + 1
	frameAck
	frameNack
)

const linkHeader = 1 + 4 + 8 + 8 // type, round, sequence number, cumulative ack

// rtoCap bounds the backed-off retransmission timeout. chaos.DefaultPlan
// partitions a pair for 60ms and stalls a node for 40ms: a third of the
// partition lets a blocked link resume within 20ms of the heal, having
// retransmitted about six times across it.
const rtoCap = 20 * time.Millisecond

// rtoInit is the timeout before a link's first round-trip sample.
const rtoInit = 10 * time.Millisecond

// window caps the frames a link has in flight; lossWindow is what it
// closes to on a loss: enough frames behind a lost one that, at 30%
// loss, one of their NACKs nearly always gets back before the timer.
const window, lossWindow = 64, 8

// link is one directed pair's ARQ state: the sender's half at from,
// the receiver's at to.
type link struct {
	net      *Net
	from, to NodeID
	rev      *link // to -> from, whose acks ride on this pair's frames

	mu       sync.Mutex
	next     uint64     // sequence number of the last message queued
	unacked  []unacked  // queued and not yet acknowledged, in sequence order
	nextTx   uint64     // the next sequence number to transmit
	cwnd     uint64     // frames that may be in flight, lossWindow to window
	round    uint32     // go-backs so far
	out      []outFrame // waiting for the drainer, in transmission order
	ackOut   bool       // an ack frame is in out: its value is read when it leaves
	draining bool       // a goroutine is transmitting out
	est      rttEstimator
	due      atomic.Int64 // set under mu: when the oldest frame in flight times out; 0: none is

	rxMu    sync.Mutex
	expect  uint64        // the next sequence number to deliver
	nacked  uint64        // expect when the last NACK went out...
	nackRnd uint32        // ...and the round of the frame that drew it
	quiet   int           // frames discarded since that NACK
	rcvd    atomic.Uint64 // expect - 1, read lock-free for the acks on rev's frames
}

type unacked struct {
	seq  uint64
	msg  *[]byte   // the encoded message, pooled
	sent time.Time // first transmission; zero until then
	retx bool      // retransmitted: its ack is no round-trip sample (Karn)
}

type outFrame struct {
	typ   byte
	retx  bool   // a data frame's second or later transmission
	round uint32 // a data frame's; a NACK's, of the frame that drew it
	seq   uint64 // data frames only
}

// newLinks gives every directed pair of net its link, and net the
// clock that times them and the delivery queues.
func newLinks(net *Net) {
	c := &clock{epoch: time.Now(), wake: make(chan struct{}, 1), done: make(chan struct{})}
	for i := range net.pairs {
		for j := 0; j < i; j++ {
			a := &link{net: net, from: NodeID(i), to: NodeID(j), nextTx: 1, cwnd: window, expect: 1}
			b := &link{net: net, from: NodeID(j), to: NodeID(i), nextTx: 1, cwnd: window, expect: 1, rev: a}
			a.rev, net.pairs[i][j].lk, net.pairs[j][i].lk = b, a, b
			c.timers = append(c.timers, timer{&a.due, a.expire}, timer{&b.due, b.expire})
		}
	}
	for _, q := range net.queues {
		c.timers = append(c.timers, timer{&q.due, func() { q.due.Store(0); poke(q.wake) }})
	}
	net.clock = c
	go c.run(net)
}

// send takes ownership of one encoded message and transmits it.
func (l *link) send(msg *[]byte) {
	now := time.Now()
	l.mu.Lock()
	l.next++
	l.unacked = append(l.unacked, unacked{seq: l.next, msg: msg})
	l.pump(now)
	l.drain()
}

// pump queues for transmission what the window allows, arming the
// timer if nothing was in flight. Under l.mu.
func (l *link) pump(now time.Time) {
	if len(l.unacked) == 0 {
		return
	}
	base := l.unacked[0].seq
	if l.nextTx == base {
		l.arm(now)
	}
	for ; l.nextTx <= l.next && l.nextTx < base+l.cwnd; l.nextTx++ {
		u := &l.unacked[l.nextTx-base]
		if u.sent.IsZero() {
			u.sent = now
		} else {
			u.retx = true
		}
		l.out = append(l.out, outFrame{typ: frameData, retx: u.retx, round: l.round, seq: u.seq})
	}
}

// control queues an ack or a NACK of the reverse pair's data; this
// link's from is the receiver acknowledging.
func (l *link) control(typ byte, round uint32) {
	l.mu.Lock()
	if typ == frameAck {
		if l.ackOut { // the queued one will carry this ack too
			l.mu.Unlock()
			return
		}
		l.ackOut = true
	}
	l.out = append(l.out, outFrame{typ: typ, round: round})
	l.drain()
}

// drain transmits out in order unless another goroutine already is.
// Called with l.mu held; returns with it released.
func (l *link) drain() {
	if l.draining {
		l.mu.Unlock()
		return
	}
	l.draining = true
	for i := 0; i < len(l.out); i++ {
		bp := l.frame(l.out[i])
		if bp == nil {
			continue
		}
		l.mu.Unlock()
		l.net.eps[l.from].inject(l.to, bp)
		l.mu.Lock()
	}
	l.out = l.out[:0]
	l.draining = false
	l.mu.Unlock()
}

// frame builds f's bytes in a pooled buffer: the header, with the
// reverse pair's cumulative ack as of now, and for a data frame the
// message, nil if it has been acknowledged meanwhile. It counts what
// it builds. Under l.mu.
func (l *link) frame(f outFrame) *[]byte {
	ep := l.net.eps[l.from]
	var msg []byte
	if f.typ == frameData {
		if len(l.unacked) == 0 || f.seq < l.unacked[0].seq {
			return nil
		}
		msg = *l.unacked[f.seq-l.unacked[0].seq].msg
		if f.retx {
			ep.st.Retries.Add(1)
			if ep.tr != nil {
				var m wire.Msg
				if wire.DecodeInto(&m, msg) == nil {
					ep.tr.Emit(trace.EvRetry, int32(l.to), m.Req, m.Page, m.Lock, trace.MsgArg(uint8(m.Kind)), 0)
				}
			}
		}
	} else {
		ep.st.LinkAcks.Add(1)
		if f.typ == frameAck {
			l.ackOut = false
		}
	}
	bp := wire.GetBuf()
	b := append((*bp)[:0], f.typ)
	b = binary.LittleEndian.AppendUint32(b, f.round)
	b = binary.LittleEndian.AppendUint64(b, f.seq)
	b = binary.LittleEndian.AppendUint64(b, l.rev.rcvd.Load())
	*bp = append(b, msg...)
	return bp
}

// accept runs at to for one frame of this pair: it applies the frame's
// ack to the reverse pair, then returns the message of a data frame
// that is next in sequence (acknowledged already) and false for
// anything else.
func (l *link) accept(frame []byte, st *stats.Node) ([]byte, bool) {
	typ := frame[0]
	round := binary.LittleEndian.Uint32(frame[1:])
	seq := binary.LittleEndian.Uint64(frame[5:])
	l.rev.acked(binary.LittleEndian.Uint64(frame[13:]), typ == frameNack, round)
	if typ != frameData {
		st.LinkAcksRecv.Add(1)
		return nil, false
	}
	l.rxMu.Lock()
	switch {
	case seq == l.expect:
		l.expect++
		l.rcvd.Store(seq)
		l.rxMu.Unlock()
		l.rev.control(frameAck, 0)
		return frame[linkHeader:], true
	case seq < l.expect: // a duplicate, or a retransmission whose ack was lost
		l.rxMu.Unlock()
		st.DupRequests.Add(1)
		l.rev.control(frameAck, 0)
	default: // behind a gap
		l.quiet++
		nack := l.nacked != l.expect || l.nackRnd != round || l.quiet >= 2
		if nack {
			l.nacked, l.nackRnd, l.quiet = l.expect, round, 0
		}
		l.rxMu.Unlock()
		st.DupRequests.Add(1)
		if nack {
			l.rev.control(frameNack, round)
		}
	}
	return nil, false
}

// acked applies a cumulative ack of every frame up to upto, opening
// the window by as many; a NACK of the current round then goes back to
// the oldest frame left.
func (l *link) acked(upto uint64, nack bool, round uint32) {
	l.mu.Lock()
	n := uint64(0)
	if len(l.unacked) > 0 && upto >= l.unacked[0].seq {
		n = min(upto-l.unacked[0].seq+1, uint64(len(l.unacked)))
	}
	back := nack && round == l.round
	if n == 0 && (!back || len(l.unacked) == 0) {
		l.mu.Unlock()
		return
	}
	now := time.Now()
	if n > 0 {
		if last := l.unacked[n-1]; !last.retx {
			l.est.sample(now.Sub(last.sent))
		}
		for _, u := range l.unacked[:n] {
			wire.PutBuf(u.msg)
		}
		rest := copy(l.unacked, l.unacked[n:])
		clear(l.unacked[rest:])
		l.unacked = l.unacked[:rest]
		l.nextTx = max(l.nextTx, upto+1)
		l.cwnd = min(l.cwnd+n, window)
		if rest == 0 || l.nextTx == l.unacked[0].seq {
			l.due.Store(0) // nothing in flight
		} else {
			l.arm(now)
		}
	}
	if back && len(l.unacked) > 0 {
		l.goBack()
	}
	l.pump(now)
	l.drain()
}

// expire runs on the clock: if the oldest frame in flight is due,
// back off and go back to it.
func (l *link) expire() {
	l.mu.Lock()
	now := time.Now()
	if due := l.due.Load(); due == 0 || l.net.clock.since(now) < due || l.net.isClosed() {
		l.mu.Unlock()
		return
	}
	l.est.backoff()
	l.goBack()
	l.pump(now)
	l.drain()
}

// goBack starts a new round at the oldest unacknowledged frame, with
// the window closed to lossWindow. Under l.mu.
func (l *link) goBack() {
	l.nextTx, l.cwnd = l.unacked[0].seq, lossWindow
	l.round++
}

// arm restarts the timer for the oldest frame in flight. Under l.mu.
func (l *link) arm(now time.Time) {
	l.net.clock.set(&l.due, now.Add(l.est.rto()))
}

// clock is the one timer of a network with a fault plan: a goroutine
// that fires what is due among its links and delivery queues. Go's
// timers fire about a millisecond late when every P is idle, hundreds
// of simulated round trips; a sleeping thread wakes within tens of
// microseconds. With nothing due the clock parks on wake.
type clock struct {
	epoch  time.Time // due times are nanoseconds since epoch
	timers []timer
	parked atomic.Bool
	wake   chan struct{} // capacity one: a pending wake-up says "look again"
	done   chan struct{} // closed when run returns
}

// timer is one thing the clock times; a zero due means nothing is due.
type timer struct {
	due  *atomic.Int64
	fire func()
}

func (c *clock) since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// set makes at the due time of due, waking the clock if it is parked.
func (c *clock) set(due *atomic.Int64, at time.Time) {
	if due.Store(c.since(at)); c.parked.Load() {
		poke(c.wake)
	}
}

// run sleeps towards the next due time in slices no longer than
// rtoFloor, so a time set meanwhile is overslept by at most a slice and
// a timeout, never shorter, not at all. It announces parking before a
// last look, and set stores before it looks: one sees the other.
func (c *clock) run(n *Net) {
	defer close(c.done)
	for !n.isClosed() {
		now, next := c.since(time.Now()), int64(0)
		for _, t := range c.timers {
			if due := t.due.Load(); due != 0 && due <= now {
				t.fire()
			} else if due != 0 && (next == 0 || due < next) {
				next = due
			}
		}
		if next != 0 {
			c.parked.Store(false)
			sleep(min(time.Duration(next-c.since(time.Now())), rtoFloor))
		} else if c.parked.Swap(true) { // else one more look
			select {
			case <-c.wake:
			case <-n.closed:
			}
			c.parked.Store(false)
		}
	}
}

// sleep blocks the calling goroutine's thread for d: a syscall, not a
// runtime timer, for the precision the clock is there for.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: waking early only means one more look
}

// LinkReport describes the sender's half of the link from this
// endpoint to peer for a stall dump: how much is unacknowledged, for
// how long, and the timeout it waits out. Frames waiting say the
// network is the holdup; none say the peer is. "" without a fault plan,
// when there is no link.
func (e *Endpoint) LinkReport(peer NodeID) string {
	if peer < 0 || int(peer) >= e.net.cfg.Nodes || e.net.pairs[e.id][peer].lk == nil {
		return ""
	}
	l := e.net.pairs[e.id][peer].lk
	l.mu.Lock()
	defer l.mu.Unlock()
	s := fmt.Sprintf("link %d->%d: unacked=%d", l.from, l.to, len(l.unacked))
	if len(l.unacked) > 0 {
		s += fmt.Sprintf(" oldest=%v", time.Since(l.unacked[0].sent).Round(time.Millisecond))
	}
	return s + fmt.Sprintf(" rto=%v", l.est.rto().Round(time.Microsecond))
}

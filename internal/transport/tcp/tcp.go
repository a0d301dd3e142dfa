// Package tcp is the real-socket transport backend: each DSM node is
// its own OS process, connected to its peers by persistent TCP
// connections carrying length-prefixed wire frames. It implements
// transport.Transport for exactly one local node; a cluster is N
// processes each running one Transport over a shared address list.
//
// Wire protocol. Every connection is unidirectional for frames:
// node i dials node j and sends frames; j's accept side only reads.
// A connection opens with a fixed-size handshake — magic, frame
// version byte (wire.Version), sender id, cluster size, and a config
// digest — which the acceptor verifies and answers with an accept or
// a reject-with-reason, so mismatched builds and miswired clusters
// fail fast with a clear error instead of desynchronizing. After the
// handshake, each frame is a 4-byte little-endian length (bounded by
// wire.MaxEncodedSize) followed by one encoded wire.Msg; a zero length
// is the end-of-stream frame Close writes.
//
// Connection management. Each ordered pair has one connection (a
// second handshake is rejected), dialed lazily with backoff for
// Config.DialWindow and written under a per-peer mutex, so TCP itself
// gives the in-order, lossless delivery the protocols assume. No
// redial, which could deliver later frames past ones lost with the old
// connection: a failed dial or write marks the peer lost, failing every
// later send to it. A connection that ends without the end frame (EOF,
// reset, a bad frame) while the transport is open means its peer died:
// Err names it and the endpoint goes down, so the node fails instead of
// waiting.
//
// Delivery. Connection readers decode frames into the endpoint's inbox,
// where frames that arrive before Attach wait; Attach starts the one
// goroutine that drains it into deliver, so a reader never runs a
// handler and keeps reading while one writes to a socket. Recv reads
// the inbox itself.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// handshake layout: magic | version | node id | cluster size | digest.
const (
	magic          = 0x44534d55 // "DSMU": framing with the end-of-stream frame
	handshakeSize  = 4 + 1 + 4 + 4 + 8
	replyOK        = 0
	replyReject    = 1
	maxRejectLen   = 512
	dialTimeout    = 2 * time.Second // one connection attempt
	defaultWindow  = 15 * time.Second
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
	readBufSize    = 32 << 10 // per incoming connection
)

// Config describes one node's attachment to a TCP cluster.
type Config struct {
	// Self is this process's node id in [0, len(Addrs)).
	Self transport.NodeID
	// Addrs lists every node's listen address, indexed by node id;
	// its length is the cluster size.
	Addrs []string
	// Listener optionally supplies a pre-bound listener for
	// Addrs[Self] — used when a parent process reserves ports (or an
	// ":0" address was resolved) before spawning node processes.
	Listener net.Listener
	// ConfigDigest fingerprints the cluster configuration (protocol,
	// page size, workload...). Peers with a different digest are
	// rejected at the handshake.
	ConfigDigest uint64
	// DialWindow bounds the total lazy-dial retry time for a peer —
	// cluster bring-up skew (default 15s). A connection is dialed
	// once: when it breaks, the peer is lost.
	DialWindow time.Duration
}

func (c *Config) fillDefaults() error {
	if len(c.Addrs) == 0 {
		return fmt.Errorf("tcp: no peer addresses")
	}
	if c.Self < 0 || int(c.Self) >= len(c.Addrs) {
		return fmt.Errorf("tcp: Self = %d out of range for %d addresses", c.Self, len(c.Addrs))
	}
	if c.DialWindow <= 0 {
		c.DialWindow = defaultWindow
	}
	return nil
}

// Transport is one node's TCP attachment. It implements
// transport.Transport with a single local endpoint (Self).
type Transport struct {
	cfg Config
	ln  net.Listener
	ep  *endpoint

	peers []*peer // outgoing connections, indexed by node id

	connMu    sync.Mutex
	incoming  []net.Conn // accepted connections, for shutdown
	connected []bool     // node ids that have opened their one connection here

	errMu    sync.Mutex
	firstErr error

	wg       sync.WaitGroup // accept loop + per-connection readers
	closed   chan struct{}  // the receive side stopped: Close, or a peer died
	stopOnce sync.Once
}

// peer is the outgoing connection state for one remote node.
type peer struct {
	mu   sync.Mutex // serializes dial+write: preserves per-pair FIFO
	conn net.Conn
	lost error // set by the first failed dial or write; final
}

// New builds the transport and starts listening. Peers are dialed
// lazily on first send.
func New(cfg Config) (*Transport, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	t := &Transport{
		cfg:       cfg,
		peers:     make([]*peer, len(cfg.Addrs)),
		connected: make([]bool, len(cfg.Addrs)),
		closed:    make(chan struct{}),
	}
	for i := range t.peers {
		t.peers[i] = &peer{}
	}
	t.ep = &endpoint{t: t, inbox: make(chan *wire.Msg, transport.InboxDepth)}
	t.ep.st.Store(&stats.Node{})
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("tcp: node %d listen %s: %w", cfg.Self, cfg.Addrs[cfg.Self], err)
		}
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Name implements transport.Transport.
func (t *Transport) Name() string { return "tcp" }

// Nodes implements transport.Transport.
func (t *Transport) Nodes() int { return len(t.cfg.Addrs) }

// Endpoint implements transport.Transport: only Self is local.
func (t *Transport) Endpoint(id transport.NodeID) transport.Endpoint {
	if id != t.cfg.Self {
		return nil
	}
	return t.ep
}

// Addr returns the actual listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Err returns the first connection-level error the transport
// recorded (handshake rejections, a peer's death), or nil.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}

func (t *Transport) fail(err error) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.errMu.Unlock()
}

// Close implements transport.Transport: stop, then end each outgoing
// connection with the end frame: an orderly close, not a death.
func (t *Transport) Close() {
	t.stop()
	for _, p := range t.peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.SetWriteDeadline(time.Now().Add(dialTimeout))
			_, _ = p.conn.Write(make([]byte, 4))
			_ = p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// stop ends the receive side, once: stop accepting, tear the incoming
// connections down, wait for their readers, close the inbox (whose
// reader delivers what is queued, then goes down).
func (t *Transport) stop() {
	t.stopOnce.Do(func() {
		t.connMu.Lock()
		close(t.closed)
		for _, c := range t.incoming {
			_ = c.Close()
		}
		t.connMu.Unlock()
		_ = t.ln.Close()
		t.wg.Wait()
		close(t.ep.inbox)
	})
}

// peerDied: a connection ended without the end frame, and unless the
// transport is stopping (which tore it down), its peer died. stop waits
// for the readers, hence the go.
func (t *Transport) peerDied(from transport.NodeID, cause error) {
	if !t.isClosed() {
		t.fail(fmt.Errorf("tcp: node %d: peer node %d died: %w", t.cfg.Self, from, cause))
		go t.stop()
	}
}

func (t *Transport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------
// Accept side
// ---------------------------------------------------------------

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error.
			return
		}
		t.connMu.Lock()
		if t.isClosed() {
			t.connMu.Unlock()
			_ = conn.Close()
			return
		}
		t.incoming = append(t.incoming, conn)
		t.wg.Add(1)
		t.connMu.Unlock()
		go t.serveConn(conn)
	}
}

// serveConn verifies one incoming connection's handshake and then
// delivers its frames until it breaks or the transport closes.
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	from, err := t.verifyHandshake(conn)
	if err != nil {
		t.fail(fmt.Errorf("tcp: node %d: rejected connection from %s: %w", t.cfg.Self, conn.RemoteAddr(), err))
		sendReject(conn, err.Error())
		return
	}
	if _, err := conn.Write([]byte{replyOK}); err != nil {
		return
	}
	hdr := make([]byte, 4)
	// Buffered so a frame's length and body (and any frames queued
	// behind it) arrive in one read syscall, not two per frame.
	br := bufio.NewReaderSize(conn, readBufSize)
	// One pooled receive buffer serves the whole connection: Decode
	// copies payloads out, so the buffer is reusable frame after frame.
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			t.peerDied(from, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr)
		if n == 0 {
			return // the peer's orderly Close
		}
		if n > wire.MaxEncodedSize {
			t.peerDied(from, fmt.Errorf("frame length %d out of range", n))
			return
		}
		if cap(*bp) < int(n) {
			*bp = make([]byte, n)
		}
		raw := (*bp)[:n]
		if _, err := io.ReadFull(br, raw); err != nil {
			t.peerDied(from, err)
			return
		}
		m, err := wire.Decode(raw)
		if err != nil {
			t.peerDied(from, fmt.Errorf("corrupt frame: %w", err))
			return
		}
		t.ep.stMu.RLock()
		st := t.ep.st.Load()
		st.MsgsRecv.Add(1)
		st.BytesRecv.Add(int64(len(raw)))
		t.ep.stMu.RUnlock()
		select {
		case t.ep.inbox <- m:
		case <-t.closed:
			return
		}
	}
}

// sendReject answers a failed handshake with a reject frame: status
// byte, uint16 reason length, reason bytes. The reason is truncated
// to maxRejectLen so an oversized error string can never write a
// length the dialer would refuse to read (or overflow the uint16).
func sendReject(conn net.Conn, reason string) {
	if len(reason) > maxRejectLen {
		reason = reason[:maxRejectLen]
	}
	reply := make([]byte, 3, 3+len(reason))
	reply[0] = replyReject
	binary.LittleEndian.PutUint16(reply[1:], uint16(len(reason)))
	reply = append(reply, reason...)
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = conn.Write(reply)
}

// verifyHandshake reads and checks a dialer's handshake, returning
// the peer's node id.
func (t *Transport) verifyHandshake(conn net.Conn) (transport.NodeID, error) {
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout + t.cfg.DialWindow))
	defer conn.SetReadDeadline(time.Time{})
	buf := make([]byte, handshakeSize)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return -1, fmt.Errorf("short handshake: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != magic {
		return -1, fmt.Errorf("bad magic %#x (not a DSM transport peer?)", got)
	}
	if v := buf[4]; v != wire.Version {
		return -1, fmt.Errorf("frame version mismatch: peer speaks v%d, this build speaks v%d — rebuild so all nodes run the same binary", v, wire.Version)
	}
	from := transport.NodeID(binary.LittleEndian.Uint32(buf[5:]))
	nodes := int(binary.LittleEndian.Uint32(buf[9:]))
	digest := binary.LittleEndian.Uint64(buf[13:])
	if nodes != len(t.cfg.Addrs) {
		return -1, fmt.Errorf("cluster size mismatch: peer %d says %d nodes, this node has %d", from, nodes, len(t.cfg.Addrs))
	}
	if from < 0 || int(from) >= len(t.cfg.Addrs) || from == t.cfg.Self {
		return -1, fmt.Errorf("invalid peer node id %d (self %d, cluster of %d)", from, t.cfg.Self, len(t.cfg.Addrs))
	}
	if digest != t.cfg.ConfigDigest {
		return -1, fmt.Errorf("config digest mismatch: peer %d has %#x, this node has %#x — the processes were started with different cluster configurations", from, digest, t.cfg.ConfigDigest)
	}
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.connected[from] {
		return -1, fmt.Errorf("node %d is already connected: a second connection would break per-pair order", from)
	}
	t.connected[from] = true
	return from, nil
}

// ---------------------------------------------------------------
// Dial side
// ---------------------------------------------------------------

// dial establishes, handshakes, and returns a connection to node id,
// retrying for DialWindow while the peer is not yet listening.
func (t *Transport) dial(id transport.NodeID) (net.Conn, error) {
	addr := t.cfg.Addrs[id]
	deadline := time.Now().Add(t.cfg.DialWindow)
	backoff := dialBackoffMin
	for {
		if t.isClosed() {
			return nil, fmt.Errorf("tcp: transport closed")
		}
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if err = t.handshake(conn, id); err != nil {
				_ = conn.Close()
				// A handshake rejection is permanent: the peer is up but
				// incompatible. Retrying cannot help.
				return nil, err
			}
			return conn, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("tcp: node %d: dial node %d (%s): %w", t.cfg.Self, id, addr, err)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-t.closed:
			timer.Stop()
			return nil, fmt.Errorf("tcp: transport closed")
		case <-timer.C:
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// handshake sends this node's identity and waits for the acceptor's
// verdict.
func (t *Transport) handshake(conn net.Conn, to transport.NodeID) error {
	buf := make([]byte, handshakeSize)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	buf[4] = wire.Version
	binary.LittleEndian.PutUint32(buf[5:], uint32(t.cfg.Self))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(t.cfg.Addrs)))
	binary.LittleEndian.PutUint64(buf[13:], t.cfg.ConfigDigest)
	_ = conn.SetDeadline(time.Now().Add(dialTimeout + t.cfg.DialWindow))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("tcp: node %d: handshake write to node %d: %w", t.cfg.Self, to, err)
	}
	status := make([]byte, 1)
	if _, err := io.ReadFull(conn, status); err != nil {
		return fmt.Errorf("tcp: node %d: handshake reply from node %d: %w", t.cfg.Self, to, err)
	}
	if status[0] == replyOK {
		return nil
	}
	lenBuf := make([]byte, 2)
	reason := "(no reason received)"
	if _, err := io.ReadFull(conn, lenBuf); err == nil {
		n := binary.LittleEndian.Uint16(lenBuf)
		if n > 0 && n <= maxRejectLen {
			msg := make([]byte, n)
			if _, err := io.ReadFull(conn, msg); err == nil {
				reason = string(msg)
			}
		}
	}
	err := fmt.Errorf("tcp: node %d: node %d rejected the connection: %s", t.cfg.Self, to, reason)
	t.fail(err)
	return err
}

// ---------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------

// endpoint is the local node's transport.Endpoint.
type endpoint struct {
	t     *Transport
	inbox chan *wire.Msg
	taken atomic.Int32 // the inbox's one reader: 1 Recv, 2 Attach

	stMu sync.RWMutex // readers count under it shared, SetStats swaps under it
	st   atomic.Pointer[stats.Node]
}

// ID implements transport.Endpoint.
func (e *endpoint) ID() transport.NodeID { return e.t.cfg.Self }

// SetStats implements transport.Endpoint: st replaces the endpoint's
// set and takes over what it counted (a peer may deliver first).
func (e *endpoint) SetStats(st *stats.Node) {
	e.stMu.Lock()
	defer e.stMu.Unlock()
	old := e.st.Swap(st)
	st.MsgsRecv.Add(old.MsgsRecv.Swap(0))
	st.BytesRecv.Add(old.BytesRecv.Swap(0))
}

// Attach implements transport.Endpoint: the delivery goroutine.
func (e *endpoint) Attach(deliver func(*wire.Msg), down func()) error {
	if !e.taken.CompareAndSwap(0, 2) {
		return transport.ErrAttached
	}
	go func() {
		for m := range e.inbox {
			deliver(m)
		}
		down()
	}()
	return nil
}

// Recv implements transport.Endpoint with the inbox itself: no hop.
func (e *endpoint) Recv() <-chan *wire.Msg {
	if !e.taken.CompareAndSwap(0, 1) && e.taken.Load() != 1 {
		panic(transport.ErrAttached)
	}
	return e.inbox
}

// Send implements transport.Endpoint: encode once, frame, and write
// on the peer's connection (dialing it if needed). A message to this
// node itself is refused, and so is every message to a lost peer.
func (e *endpoint) Send(m *wire.Msg) error {
	t := e.t
	if t.isClosed() {
		return fmt.Errorf("tcp: transport closed")
	}
	to := m.To
	if to < 0 || int(to) >= len(t.cfg.Addrs) {
		return fmt.Errorf("tcp: send to invalid node %d (cluster of %d)", to, len(t.cfg.Addrs))
	}
	if to == t.cfg.Self {
		return fmt.Errorf("tcp: node %d: send to itself", to)
	}
	// Build the frame in a pooled buffer; nothing below keeps a
	// reference past the write.
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	frame := append(*bp, 0, 0, 0, 0)
	frame = m.Encode(frame)
	*bp = frame
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	st := e.st.Load()
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil && p.lost == nil {
		if p.conn, p.lost = t.dial(to); p.conn != nil {
			st.Dials.Add(1)
		}
	}
	if p.conn != nil {
		if _, err := p.conn.Write(frame); err != nil {
			_ = p.conn.Close()
			p.conn, p.lost = nil, fmt.Errorf("send %v: %w", m.Kind, err)
		}
	}
	if p.lost != nil {
		st.SendErrors.Add(1)
		return fmt.Errorf("tcp: node %d: peer node %d lost: %w", t.cfg.Self, to, p.lost)
	}
	st.MsgsSent.Add(1)
	st.BytesSent.Add(int64(len(frame) - 4))
	return nil
}

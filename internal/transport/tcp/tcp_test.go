package tcp

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/wire"
)

// newLoopbackCluster builds an n-node TCP cluster inside one test
// process: n listeners on 127.0.0.1:0, n Transport handles.
func newLoopbackCluster(t testing.TB, n int, digest uint64) []*Transport {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		tr, err := New(Config{
			Self:         transport.NodeID(i),
			Addrs:        addrs,
			Listener:     lns[i],
			ConfigDigest: digest,
			DialWindow:   5 * time.Second,
		})
		if err != nil {
			t.Fatalf("tcp.New node %d: %v", i, err)
		}
		trs[i] = tr
		t.Cleanup(tr.Close)
	}
	return trs
}

// rawHandshake dials addr and sends a handshake from node from of a
// 2-node cluster with digest 7 in frame version v, returning the
// acceptor's status byte and the connection, closed at cleanup.
func rawHandshake(t *testing.T, addr string, from uint32, v byte) (byte, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	buf := make([]byte, handshakeSize)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	buf[4] = v
	binary.LittleEndian.PutUint32(buf[5:], from)
	binary.LittleEndian.PutUint32(buf[9:], 2)
	binary.LittleEndian.PutUint64(buf[13:], 7)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	status := make([]byte, 1)
	if _, err := io.ReadFull(conn, status); err != nil {
		t.Fatal(err)
	}
	return status[0], conn
}

// crash tears tr down the way a killed process goes: every socket
// closes and no end-of-stream frame is written.
func crash(tr *Transport) {
	_ = tr.ln.Close()
	for _, p := range tr.peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	tr.connMu.Lock()
	for _, c := range tr.incoming {
		_ = c.Close()
	}
	tr.connMu.Unlock()
}

// connect sends one message from trs[from] to trs[to] and receives it,
// so the pair's connection is up.
func connect(t *testing.T, trs []*Transport, from, to transport.NodeID) {
	t.Helper()
	if err := trs[from].Endpoint(from).Send(&wire.Msg{Kind: wire.KAck, To: to, Req: 1}); err != nil {
		t.Fatalf("send %d -> %d: %v", from, to, err)
	}
	select {
	case <-trs[to].Endpoint(to).Recv():
	case <-time.After(5 * time.Second):
		t.Fatalf("message %d -> %d never delivered", from, to)
	}
}

// closeAndCheckGoroutines closes every transport and waits for the
// process's goroutine count to fall back to base.
func closeAndCheckGoroutines(t *testing.T, trs []*Transport, base int) {
	t.Helper()
	for _, tr := range trs {
		tr.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after both transports closed, %d before they were built", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTransportConformance runs the shared transport contract suite
// against the TCP backend.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, loopbackEndpoints)
}

// TestFramesBeforeAttach: frames that arrive before Attach wait in the
// inbox and are delivered in order after it.
func TestFramesBeforeAttach(t *testing.T) {
	transporttest.FramesBeforeAttach(t, loopbackEndpoints)
}

// loopbackEndpoints is the conformance suite's factory.
func loopbackEndpoints(t *testing.T, n int) ([]transport.Endpoint, func()) {
	trs := newLoopbackCluster(t, n, 0xfeed)
	eps := make([]transport.Endpoint, n)
	for i := range trs {
		eps[i] = trs[i].Endpoint(transport.NodeID(i))
	}
	closeAll := func() {
		for _, tr := range trs {
			tr.Close()
		}
	}
	return eps, closeAll
}

// TestDigestMismatchFailsFast: peers started with different cluster
// configurations reject each other with a clear error.
func TestDigestMismatchFailsFast(t *testing.T) {
	ln0, _ := net.Listen("tcp", "127.0.0.1:0")
	ln1, _ := net.Listen("tcp", "127.0.0.1:0")
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	t0, err := New(Config{Self: 0, Addrs: addrs, Listener: ln0, ConfigDigest: 0xAAAA})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := New(Config{Self: 1, Addrs: addrs, Listener: ln1, ConfigDigest: 0xBBBB})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	err = t0.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: 1})
	if err == nil {
		t.Fatalf("send across mismatched digests succeeded, want handshake rejection")
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("want a digest-mismatch error, got: %v", err)
	}
	if t1.Err() == nil || !strings.Contains(t1.Err().Error(), "digest mismatch") {
		t.Fatalf("acceptor did not record the rejection: %v", t1.Err())
	}
}

// TestClusterSizeMismatchFailsFast: a peer from a differently sized
// cluster is rejected.
func TestClusterSizeMismatchFailsFast(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	// A third transport believing in a 3-node cluster that reuses
	// node 1's address as its peer.
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	rogue, err := New(Config{
		Self:         2,
		Addrs:        []string{trs[0].Addr(), trs[1].Addr(), ln.Addr().String()},
		Listener:     ln,
		ConfigDigest: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	err = rogue.Endpoint(2).Send(&wire.Msg{Kind: wire.KAck, To: 1})
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("want cluster-size mismatch error, got: %v", err)
	}
}

// TestVersionMismatchFailsFast drives the acceptor with a raw
// handshake claiming a future frame version.
func TestVersionMismatchFailsFast(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	if status, _ := rawHandshake(t, trs[1].Addr(), 0, wire.Version+1); status != replyReject {
		t.Fatalf("acceptor accepted a future frame version")
	}
	if e := trs[1].Err(); e == nil || !strings.Contains(e.Error(), "version mismatch") {
		t.Fatalf("acceptor did not record the version rejection: %v", e)
	}
}

// TestBadMagicRejected: a non-DSM client is turned away cleanly.
func TestBadMagicRejected(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	conn, err := net.Dial("tcp", trs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	status := make([]byte, 1)
	if _, err := io.ReadFull(conn, status); err != nil {
		t.Fatal(err)
	}
	if status[0] != replyReject {
		t.Fatalf("acceptor accepted garbage magic")
	}
}

// TestOversizedFrameRejected: a hostile length prefix cannot force
// an allocation; the connection is dropped and the error recorded.
func TestOversizedFrameRejected(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	status, conn := rawHandshake(t, trs[1].Addr(), 0, wire.Version)
	if status != replyOK {
		t.Fatalf("valid handshake rejected")
	}
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(wire.MaxEncodedSize)+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The transport must close the connection without reading a body.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("connection still open after oversized frame header")
	}
	if e := trs[1].Err(); e == nil || !strings.Contains(e.Error(), "frame length") {
		t.Fatalf("oversized frame not recorded: %v", e)
	}
}

// TestDeadPeerSurfacesError: killing a peer makes sends to it fail
// with a clear transport error instead of hanging.
func TestDeadPeerSurfacesError(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	ep := trs[0].Endpoint(0)
	st := &stats.Node{}
	ep.SetStats(st)
	if err := ep.Send(&wire.Msg{Kind: wire.KAck, To: 1}); err != nil {
		t.Fatalf("initial send: %v", err)
	}
	trs[1].Close() // the peer "dies"
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := ep.Send(&wire.Msg{Kind: wire.KAck, To: 1})
		if err != nil {
			if !strings.Contains(err.Error(), "node 1") {
				t.Fatalf("dead-peer error does not name the peer: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sends to a dead peer kept succeeding")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := st.Snapshot(); s.SendErrors < 1 || s.Dials != 1 {
		t.Fatalf("send_errors=%d dials=%d, want >= 1 and exactly 1", s.SendErrors, s.Dials)
	}
}

// TestLazyDialCoversStartupSkew: a send issued before the peer is
// listening succeeds once the peer comes up within the dial window.
func TestLazyDialCoversStartupSkew(t *testing.T) {
	// Reserve an address for node 1 without starting it.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := ln1.Addr().String()
	ln1.Close()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), addr1}
	t0, err := New(Config{Self: 0, Addrs: addrs, Listener: ln0, ConfigDigest: 7, DialWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	sent := make(chan error, 1)
	go func() {
		sent <- t0.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: 5})
	}()
	time.Sleep(300 * time.Millisecond) // node 1 starts late
	ln1b, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Skipf("could not rebind reserved port (race with another process): %v", err)
	}
	t1, err := New(Config{Self: 1, Addrs: addrs, Listener: ln1b, ConfigDigest: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	if err := <-sent; err != nil {
		t.Fatalf("send across startup skew: %v", err)
	}
	select {
	case m := <-t1.Endpoint(1).Recv():
		if m.Req != 5 {
			t.Fatalf("got req %d, want 5", m.Req)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("message never delivered")
	}
}

// TestPeerLostClosesRecv: a peer whose connection ends without the
// end-of-stream frame has died. The survivor's Recv closes (its node
// fails rather than waiting on replies that will never come), Err
// names the peer, and nothing is left running once both close.
func TestPeerLostClosesRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	trs := newLoopbackCluster(t, 2, 7)
	connect(t, trs, 1, 0)
	crash(trs[1])
	select {
	case m, ok := <-trs[0].Endpoint(0).Recv():
		if ok {
			t.Fatalf("delivered %v after the peer died", m)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv still open 1s after the peer died")
	}
	if err := trs[0].Err(); err == nil || !strings.Contains(err.Error(), "peer node 1 died") {
		t.Fatalf("Err() = %v, want it to name the dead peer", err)
	}
	closeAndCheckGoroutines(t, trs, base)
}

// TestOrderlyCloseIsNotDeath: a peer that Closes ends its connection
// with the end-of-stream frame, after everything it sent; the other
// transport records no error and its Recv stays open.
func TestOrderlyCloseIsNotDeath(t *testing.T) {
	base := runtime.NumGoroutine()
	trs := newLoopbackCluster(t, 2, 7)
	const k = 50
	for i := 1; i <= k; i++ {
		if err := trs[0].Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: 1, Req: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	trs[0].Close()
	for i := 1; i <= k; i++ {
		if m := <-trs[1].Endpoint(1).Recv(); m == nil || m.Req != uint64(i) {
			t.Fatalf("message %d: got %v before the orderly end", i, m)
		}
	}
	select {
	case m, ok := <-trs[1].Endpoint(1).Recv():
		t.Fatalf("Recv after the peer's orderly Close: %v (open=%v)", m, ok)
	case <-time.After(300 * time.Millisecond):
	}
	if err := trs[1].Err(); err != nil {
		t.Fatalf("orderly close recorded as an error: %v", err)
	}
	closeAndCheckGoroutines(t, trs, base)
}

// TestPeerLostFailsLaterSends: once a write to a peer has failed, the
// peer is lost: every later send fails naming it, and none redials — a
// new connection could deliver later frames past ones that died in the
// old one.
func TestPeerLostFailsLaterSends(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	ep := trs[0].Endpoint(0)
	st := &stats.Node{}
	ep.SetStats(st)
	connect(t, trs, 0, 1)
	crash(trs[1])
	deadline := time.Now().Add(5 * time.Second)
	for ep.Send(&wire.Msg{Kind: wire.KAck, To: 1}) == nil {
		if time.Now().After(deadline) {
			t.Fatal("sends to a crashed peer kept succeeding")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		err := ep.Send(&wire.Msg{Kind: wire.KAck, To: 1})
		if err == nil || !strings.Contains(err.Error(), "peer node 1 lost") {
			t.Fatalf("send after a write error: %v, want the peer named lost", err)
		}
	}
	if s := st.Snapshot(); s.Dials != 1 || s.SendErrors < 4 {
		t.Fatalf("dials=%d send_errors=%d, want exactly 1 and >= 4", s.Dials, s.SendErrors)
	}
}

// TestDuplicateHandshakeRejected: a node has one connection to each
// peer; a second handshake from a connected id is turned away with a
// reason.
func TestDuplicateHandshakeRejected(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	connect(t, trs, 0, 1)
	status, conn := rawHandshake(t, trs[1].Addr(), 0, wire.Version)
	if status != replyReject {
		t.Fatal("a second connection from node 0 was accepted")
	}
	reason, _ := io.ReadAll(conn)
	if !strings.Contains(string(reason), "already connected") {
		t.Fatalf("rejection reason %q does not say why", reason)
	}
}

// TestSetStatsTakesOverEarlyFrames: a transport accepts from New on,
// so a peer that started sooner can deliver before the node's runtime
// installs its counters; those frames are counted in the node's set,
// not lost with the endpoint's own.
func TestSetStatsTakesOverEarlyFrames(t *testing.T) {
	trs := newLoopbackCluster(t, 2, 7)
	connect(t, trs, 0, 1)
	st := &stats.Node{}
	trs[1].Endpoint(1).SetStats(st)
	want := int64((&wire.Msg{Kind: wire.KAck}).EncodedSize())
	if got := st.Snapshot(); got.MsgsRecv != 1 || got.BytesRecv != want {
		t.Fatalf("msgs_recv=%d bytes_recv=%d after SetStats, want 1 and %d", got.MsgsRecv, got.BytesRecv, want)
	}
}

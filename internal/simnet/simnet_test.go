package simnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

func newNet(t *testing.T, cfg Config) *Net {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestBasicDelivery(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	a, b := n.Endpoint(0), n.Endpoint(1)
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: 77}); err != nil {
		t.Fatal(err)
	}
	got := <-b.Recv()
	if got.Kind != wire.KAck || got.Req != 77 || got.From != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestSendToInvalidNode(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	if err := n.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: 9}); err == nil {
		t.Fatal("send to node 9 accepted")
	}
	if err := n.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, To: -1}); err == nil {
		t.Fatal("send to node -1 accepted")
	}
}

// TestPairFIFO: messages between one ordered pair arrive in send
// order, even with jitter (jitter may only delay, preserving order).
func TestPairFIFO(t *testing.T) {
	for _, jitter := range []time.Duration{0, 300 * time.Microsecond} {
		n := newNet(t, Config{Nodes: 2, Jitter: jitter, Seed: 42})
		a, b := n.Endpoint(0), n.Endpoint(1)
		const total = 200
		for i := 0; i < total; i++ {
			if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1, Req: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < total; i++ {
			got := <-b.Recv()
			if got.Req != uint64(i+1) {
				t.Fatalf("jitter=%v: message %d arrived with req %d", jitter, i+1, got.Req)
			}
		}
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 20 * time.Millisecond
	n := newNet(t, Config{Nodes: 2, Latency: ConstLatency(lat, 0)})
	a, b := n.Endpoint(0), n.Endpoint(1)
	start := time.Now()
	if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	if d := time.Since(start); d < lat {
		t.Fatalf("delivered in %v, latency model says >= %v", d, lat)
	}
}

func TestLatencyPipelines(t *testing.T) {
	// 10 messages at 30ms each must take ~30ms total, not 300ms:
	// links are pipelined, latency is not occupancy.
	const lat = 30 * time.Millisecond
	n := newNet(t, Config{Nodes: 2, Latency: ConstLatency(lat, 0)})
	a, b := n.Endpoint(0), n.Endpoint(1)
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := a.Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		<-b.Recv()
	}
	if d := time.Since(start); d > 5*lat {
		t.Fatalf("10 pipelined messages took %v; links are serializing", d)
	}
}

func TestPerByteCost(t *testing.T) {
	n := newNet(t, Config{Nodes: 2, Latency: ConstLatency(0, 10*time.Microsecond)})
	a, b := n.Endpoint(0), n.Endpoint(1)
	big := &wire.Msg{Kind: wire.KAck, From: 0, To: 1, Data: make([]byte, 2000)}
	start := time.Now()
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("2KB at 10µs/B delivered in %v, want >= ~20ms", d)
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	sa, sb := &stats.Node{}, &stats.Node{}
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.SetStats(sa)
	b.SetStats(sb)
	m := &wire.Msg{Kind: wire.KAck, From: 0, To: 1, Data: []byte{1, 2, 3}}
	wantBytes := int64(m.EncodedSize())
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	if got := sa.Snapshot(); got.MsgsSent != 1 || got.BytesSent != wantBytes {
		t.Fatalf("sender stats %+v, want 1 msg / %d bytes", got, wantBytes)
	}
	if got := sb.Snapshot(); got.MsgsRecv != 1 || got.BytesRecv != wantBytes {
		t.Fatalf("receiver stats %+v", got)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := newNet(t, Config{Nodes: 2})
	n.Close()
	if err := n.Endpoint(0).Send(&wire.Msg{Kind: wire.KAck, From: 0, To: 1}); err == nil {
		t.Fatal("send after close accepted")
	}
	// Every endpoint goes down: its Recv channel closes.
	for i := 0; i < 2; i++ {
		select {
		case _, ok := <-n.Endpoint(NodeID(i)).Recv():
			if ok {
				t.Fatal("message delivered after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("recv channel not closed")
		}
	}
}

func TestManyToOneConcurrent(t *testing.T) {
	const nodes = 8
	const per = 50
	n := newNet(t, Config{Nodes: nodes, Jitter: 50 * time.Microsecond, Seed: 7})
	var wg sync.WaitGroup
	for i := 1; i < nodes; i++ {
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := n.Endpoint(id).Send(&wire.Msg{Kind: wire.KAck, From: id, To: 0, Arg: uint64(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(NodeID(i))
	}
	last := make([]int64, nodes)
	for i := range last {
		last[i] = -1
	}
	for got := 0; got < (nodes-1)*per; got++ {
		m := <-n.Endpoint(0).Recv()
		if int64(m.Arg) <= last[m.From] {
			t.Fatalf("per-pair order violated: from %d got %d after %d", m.From, m.Arg, last[m.From])
		}
		last[m.From] = int64(m.Arg)
	}
	wg.Wait()
}

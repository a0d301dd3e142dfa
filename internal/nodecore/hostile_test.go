package nodecore_test

import (
	"testing"
	"time"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/proto/sc"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TestHostileIDsAreDropped: frames whose page id lies outside the
// receiver's table, or whose lock id is negative, are dropped by the
// runtime before any handler indexes by them; an sc node's invalidation
// handler and dsync's lock manager would panic, and over TCP the
// process with them. A bare endpoint sends both, then a valid read
// request, which the node still serves.
func TestHostileIDsAreDropped(t *testing.T) {
	net, err := simnet.New(simnet.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := mem.NewTable(16*256, 256)
	if err != nil {
		t.Fatal(err)
	}
	rt := nodecore.New(0, 2, net.Endpoint(0), tbl, &stats.Node{})
	rt.SetCallTimeout(5 * time.Second)
	dsync.New(rt, nil, dsync.Config{})
	rt.SetEngine(sc.New(rt, sc.Config{Locator: sc.Fixed}))
	rt.Start()
	rt.Engine().Init()
	replies := make(chan *wire.Msg, 8)
	bare := net.Endpoint(1)
	if err := bare.Attach(func(m *wire.Msg) { replies <- m }, func() {}); err != nil {
		t.Fatal(err)
	}
	sent := false
	t.Cleanup(func() {
		if sent { // not after a panic inside Send: Close would wait on it
			net.Close()
			rt.Close()
		}
	})

	for i, m := range []*wire.Msg{
		{Kind: wire.KInval, Page: 16},
		{Kind: wire.KInval, Page: -1},
		{Kind: wire.KLockReq, Lock: -2},
		{Kind: wire.KReadReq, Page: 1 << 30, Arg: 1},
		{Kind: wire.KReadReq, Page: 0, Arg: 1}, // page 0: node 0 manages and owns it
	} {
		m.From, m.To, m.Req = 1, 0, uint64(i+1)
		if err := bare.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	sent = true
	select {
	case r := <-replies:
		if r.Kind != wire.KReadGrant || r.Req != 5 || len(r.Data) != 256 {
			t.Fatalf("reply %v to req %d with %d bytes, want the read grant of page 0 to req 5", r.Kind, r.Req, len(r.Data))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the node did not answer a valid read request after the hostile frames")
	}
	if got := rt.Dispatched(); got != 1 {
		t.Fatalf("node dispatched %d messages, want only the valid request", got)
	}
}

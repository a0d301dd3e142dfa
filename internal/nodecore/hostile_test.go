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
// process with them. So is a second request from the node the manager's
// tail already names (for an sc page and for a lock), which no working
// node sends. A bare endpoint sends all of them, then a valid read
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
		{Kind: wire.KWriteReq, Page: 2}, // page 2 and lock 0: node 0 manages and owns them
		{Kind: wire.KWriteReq, Page: 2},
		{Kind: wire.KLockReq, Lock: 0},
		{Kind: wire.KLockReq, Lock: 0},
		{Kind: wire.KReadReq, Page: 0, Arg: 1}, // page 0: node 0 manages and owns it
	} {
		m.From, m.To, m.Req = 1, 0, uint64(i+1)
		if err := bare.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	sent = true
	for _, want := range []struct {
		kind wire.Kind
		req  uint64
	}{{wire.KWriteGrant, 5}, {wire.KLockGrant, 7}, {wire.KReadGrant, 9}} {
		select {
		case r := <-replies:
			if r.Kind != want.kind || r.Req != want.req {
				t.Fatalf("reply %v to req %d, want %v to req %d", r.Kind, r.Req, want.kind, want.req)
			}
			if r.Kind == wire.KReadGrant && len(r.Data) != 256 {
				t.Fatalf("the read grant of page 0 carries %d bytes", len(r.Data))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %v to req %d after the hostile frames", want.kind, want.req)
		}
	}
	if got := rt.Dispatched(); got != 5 {
		t.Fatalf("node dispatched %d messages, want only the five requests with ids in range", got)
	}
}

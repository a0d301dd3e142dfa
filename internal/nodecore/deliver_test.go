package nodecore

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// TestDirectDeliveryRunsOnSender: on a zero-latency simulator a message
// due now at an idle receiver is delivered on its sender's goroutine. A
// one-way message's inline handler has run when Send returns, and a
// Call to a replying inline handler is answered within the caller's own
// Send: the handler runs on the caller's goroutine, and its reply is in
// the caller's slot when Reply returns — no queue goroutine delivers
// either message.
func TestDirectDeliveryRunsOnSender(t *testing.T) {
	a, b, _, _ := pair(t)
	var ran atomic.Bool
	b.HandleInline(wire.KEvtSet, func(*wire.Msg) { ran.Store(true) })
	if err := a.Send(&wire.Msg{Kind: wire.KEvtSet, To: 1}); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("a one-way message's inline handler had not run when Send returned")
	}

	var onCaller, routed bool
	b.HandleInline(wire.KDiffReq, func(m *wire.Msg) {
		onCaller = strings.Contains(string(debug.Stack()), "TestDirectDeliveryRunsOnSender")
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Arg: m.Arg + 1})
		a.pendMu.Lock()
		_, waiting := a.pending[m.Req]
		a.pendMu.Unlock()
		routed = !waiting
	})
	reply, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 1, Arg: 6})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Arg != 7 {
		t.Fatalf("reply = %+v", reply)
	}
	if !onCaller {
		t.Fatal("the inline handler did not run on the caller's goroutine")
	}
	if !routed {
		t.Fatal("the reply was not in the caller's slot when Reply returned")
	}
}

// TestInlineChainThreeNodes: a request from A forwarded B → C → A by
// inline handlers, ending in a reply to A's caller, runs entirely on
// the caller's goroutine. A thousand calls complete, with batching off
// and on (where a queued one-way message rides each call's frame).
func TestInlineChainThreeNodes(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batched), func(t *testing.T) {
			_, rts, _ := echoNet(t, 3)
			var sets atomic.Int64
			for _, r := range rts {
				if batched {
					batchByHand(r)
				}
				r.HandleInline(wire.KDiffReq, func(m *wire.Msg) {
					switch r.ID() {
					case 1:
						_ = r.Forward(m, 2)
					case 2:
						_ = r.Forward(m, 0)
					default:
						_ = r.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Arg: m.Arg + 1})
					}
				})
				r.HandleInline(wire.KEvtSet, func(*wire.Msg) { sets.Add(1) })
			}
			a := rts[0]
			const calls = 1000
			for i := uint64(0); i < calls; i++ {
				if batched {
					if err := a.SendBatched(&wire.Msg{Kind: wire.KEvtSet, To: 1}); err != nil {
						t.Fatal(err)
					}
				}
				reply, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 1, Arg: i})
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if reply.Arg != i+1 {
					t.Fatalf("call %d: reply %+v", i, reply)
				}
			}
			if batched && sets.Load() != calls {
				t.Fatalf("%d of %d queued messages delivered with the calls", sets.Load(), calls)
			}
			if n := a.Stats().Forwards.Load() + rts[1].Stats().Forwards.Load() + rts[2].Stats().Forwards.Load(); n != 2*calls {
				t.Fatalf("forwards = %d, want %d", n, 2*calls)
			}
		})
	}
}

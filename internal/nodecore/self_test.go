package nodecore

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// A self-addressed call to a goroutine handler may do nested RPC, as
// when it came through the endpoint.
func TestSelfDeliverNestedRPC(t *testing.T) {
	a, _, _, _ := pair(t)
	a.Handle(wire.KDiffReq, func(m *wire.Msg) {
		inner, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1, Arg: m.Arg})
		if err != nil {
			t.Error(err)
			return
		}
		_ = a.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Arg: inner.Arg})
	})
	reply, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 0, Arg: 6})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Arg != 7 || reply.From != 0 {
		t.Fatalf("reply = %+v, want Arg 7 from node 0", reply)
	}
}

// The receiver of a self-addressed message gets a private copy, both
// ways: a handler scribbling on its payload leaves the sender's buffer
// alone, and the sender reusing its buffer once Send has returned
// leaves the handler's view (and a reply the caller keeps) alone.
func TestSelfDeliverPayloadIsolation(t *testing.T) {
	a, _, _, _ := pair(t)
	sent := make(chan struct{})
	a.Handle(wire.KDiffReq, func(m *wire.Msg) {
		<-sent // the sender has overwritten its buffer by now
		seen := append([]byte(nil), m.Data...)
		for i := range m.Data {
			m.Data[i] = 'h'
		}
		out := append([]byte("re:"), seen...)
		_ = a.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Data: out})
		for i := range out {
			out[i] = 'x' // reuse after Reply returned
		}
	})
	buf := []byte("payload")
	m := &wire.Msg{Kind: wire.KDiffReq, To: 0, Data: buf}
	m.Req = a.NewReq()
	pc := a.register(m.Req, m.Kind, m.To)
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	copy(buf, "SCRIBBL")
	close(sent)
	reply, err := a.waitReply(m, pc, 5*time.Second) // sent above: only wait
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "re:payload" {
		t.Fatalf("reply payload %q: handler or caller saw the other's buffer reuse", reply.Data)
	}
	if !bytes.Equal(buf, []byte("SCRIBBL")) {
		t.Fatalf("sender's buffer is %q: the handler wrote through to it", buf)
	}
}

// Self-sends racing Close either run their handler or return an
// error; after Close they all return an error and spawn nothing. (The
// race detector checks the WaitGroup: handlers are spawned from any
// goroutine that delivers.)
func TestSelfDeliverAfterClose(t *testing.T) {
	net, a, _, _, _ := pairNet(t)
	var runs, sendErrs atomic.Int64
	a.Handle(wire.KDiffReq, func(*wire.Msg) { runs.Add(1) })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a.Send(&wire.Msg{Kind: wire.KDiffReq, To: 0}) != nil {
					sendErrs.Add(1)
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	net.Close() // first, so the endpoint Close waits for goes down
	a.Close()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if runs.Load() == 0 || sendErrs.Load() == 0 {
		t.Fatalf("want sends on both sides of Close: %d handled, %d refused", runs.Load(), sendErrs.Load())
	}
	before := runs.Load()
	err := a.Send(&wire.Msg{Kind: wire.KDiffReq, To: 0})
	if err == nil || !strings.Contains(err.Error(), "shutdown") {
		t.Fatalf("self-send after Close: err = %v, want a shutdown error", err)
	}
	if runs.Load() != before {
		t.Fatal("self-send after Close ran its handler")
	}
}

// Self traffic advances the watchdog's progress signal and is not
// network traffic.
func TestSelfDeliverCounters(t *testing.T) {
	a, _, _, _ := pair(t)
	a.HandleInline(wire.KDiffReq, func(m *wire.Msg) {
		_ = a.Reply(m, &wire.Msg{Kind: wire.KDiffReply})
	})
	before := a.dispatched.Load()
	for i := 0; i < 10; i++ {
		if _, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.dispatched.Load() - before; got != 20 {
		t.Fatalf("Dispatched advanced by %d for 10 self calls, want 20 (request + reply each)", got)
	}
	if st := a.Stats(); st.MsgsSent.Load() != 0 || st.MsgsRecv.Load() != 0 {
		t.Fatalf("self calls counted as traffic: sent=%d recv=%d", st.MsgsSent.Load(), st.MsgsRecv.Load())
	}
}

// A handler wrongly registered inline that Calls back to the sender
// holds up the delivery path its reply must take wherever the
// receiver's deliveries are serialised: tcp's delivery goroutine, and
// the simulator's queue goroutine once a latency model makes every
// message wait. That must end in the nested call's named timeout
// error, within its timeout — not in a hang.
func TestInlineHandlerThatCallsTimesOutByName(t *testing.T) {
	for name, start := range map[string]func(*testing.T) (*Runtime, *Runtime){
		"tcp": tcpPair,
		"sim-latency": func(t *testing.T) (*Runtime, *Runtime) {
			_, rts, _ := echoNetCfg(t, simnet.Config{Nodes: 2, Latency: simnet.ConstLatency(100*time.Microsecond, 0)})
			return rts[0], rts[1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := start(t)
			start := time.Now()
			err := callFromInline(t, a, b)
			if err == nil {
				t.Fatal("a Call from an inline handler got its reply: its delivery path was not held up?")
			}
			for _, want := range []string{"node 1", wire.KPageReq.String(), "to 0", "page 9", "timed out after 100ms"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
			if el := time.Since(start); el > 3*time.Second {
				t.Fatalf("misuse took %v to surface", el)
			}
		})
	}
}

// On the simulator's due-now path nothing is serialised behind the
// inline handler: it runs on the caller's goroutine, and the nested
// call's reply, sent by the spawned KPageReq handler, is delivered by
// that handler's goroutine. The nested call completes.
func TestInlineHandlerThatCallsCompletesDueNow(t *testing.T) {
	a, b, _, _ := pair(t)
	if err := callFromInline(t, a, b); err != nil {
		t.Fatalf("nested call on the due-now path: %v", err)
	}
}

// callFromInline has a Call from a to b run an inline handler on b
// that Calls back to a with a 100 ms timeout, and returns the nested
// call's error.
func callFromInline(t *testing.T, a, b *Runtime) error {
	t.Helper()
	nested := make(chan error, 1)
	b.HandleInline(wire.KDiffReq, func(m *wire.Msg) {
		_, err := b.CallT(&wire.Msg{Kind: wire.KPageReq, To: 0, Page: 9}, 100*time.Millisecond)
		nested <- err
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply})
	})
	if _, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 1}); err != nil {
		t.Fatal(err)
	}
	return <-nested
}

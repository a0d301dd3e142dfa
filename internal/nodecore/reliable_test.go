package nodecore

import (
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

const ms = time.Millisecond

// lossyPair builds a two-node network under the fault plan fp, whose
// links recover what it does, with an echo runtime on each node.
func lossyPair(t *testing.T, fp simnet.FaultPlan) (*simnet.Net, *Runtime, *Runtime) {
	t.Helper()
	net, rts, _ := echoNetCfg(t, simnet.Config{Nodes: 2, Seed: 7, Faults: &fp})
	return net, rts[0], rts[1]
}

// TestLateReplyClassified: a reply that arrives after its call gave
// up is a late duplicate (expected under retransmission), not a
// stray (which would indicate a protocol bug).
func TestLateReplyClassified(t *testing.T) {
	a, b, _, _ := pair(t)
	release := make(chan struct{})
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {
		<-release
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply})
	})
	_, err := a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 30*time.Millisecond)
	if err == nil {
		t.Fatal("no timeout")
	}
	close(release) // the reply now lands after the caller unregistered
	deadline := time.Now().Add(time.Second)
	for a.st.LateReplies.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late reply not recorded (stray=%d)", a.st.StrayReplies.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if a.st.StrayReplies.Load() != 0 {
		t.Fatalf("late reply miscounted as stray (stray=%d)", a.st.StrayReplies.Load())
	}
}

// TestAwaitTokenTimeoutError: the token timeout error identifies the
// token and the wait, so watchdog/timeout reports are actionable.
func TestAwaitTokenTimeoutError(t *testing.T) {
	a, _, _, _ := pair(t)
	tok, ch := a.NewToken()
	err := a.AwaitToken(tok, ch, 20*time.Millisecond)
	if err == nil {
		t.Fatal("token wait did not time out")
	}
	for _, want := range []string{"token", fmt.Sprintf("%x", tok), "20ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("token timeout error %q missing %q", err, want)
		}
	}
}

// TestRetryRecoversFromDrops: with heavy loss, every call still
// completes once (the links retransmit), and the retry counters move.
func TestRetryRecoversFromDrops(t *testing.T) {
	_, a, _ := lossyPair(t, simnet.FaultPlan{DropProb: 0.3, DupProb: 0.2})
	for i := 0; i < 60; i++ {
		reply, err := a.CallT(&wire.Msg{Kind: wire.KPageReq, To: 1, Arg: uint64(i)}, 10*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.Arg != uint64(i)+1 {
			t.Fatalf("call %d: reply %+v", i, reply)
		}
	}
	if a.Stats().Retries.Load() == 0 {
		t.Fatal("no retries under 30% drop")
	}
	if a.Stats().StrayReplies.Load() != 0 || a.Stats().LateReplies.Load() != 0 {
		t.Fatalf("stray=%d late=%d replies: a reply came twice", a.Stats().StrayReplies.Load(), a.Stats().LateReplies.Load())
	}
}

// TestDuplicateRequestRunsHandlerOnce: on a network that duplicates
// every frame, each request still reaches its handler once; the link
// discards the copies.
func TestDuplicateRequestRunsHandlerOnce(t *testing.T) {
	_, a, b := lossyPair(t, simnet.FaultPlan{DupProb: 1})
	var runs atomic.Int64
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {
		runs.Add(1)
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply, Arg: 99})
	})
	for i := 0; i < 20; i++ {
		if _, err := a.Call(&wire.Msg{Kind: wire.KDiffReq, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 20 {
		t.Fatalf("handler ran %d times for 20 calls", got)
	}
	if b.Stats().DupRequests.Load() == 0 || a.Stats().LateReplies.Load() != 0 {
		t.Fatalf("dup_requests=%d late_replies=%d: copies not discarded by the link",
			b.Stats().DupRequests.Load(), a.Stats().LateReplies.Load())
	}
}

// TestReliableTokenConfirm: a token release, one-way, still releases
// its waiter across a lossy link.
func TestReliableTokenConfirm(t *testing.T) {
	_, a, b := lossyPair(t, simnet.FaultPlan{DropProb: 0.3})
	for i := 0; i < 20; i++ {
		tok, ch := a.NewToken()
		done := make(chan error, 1)
		go func() { done <- a.AwaitToken(tok, ch, 10*time.Second) }()
		if err := b.ReleaseToken(0, tok); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}
}

// TestLateReplyAnyAge: a reply is late, not stray, however many calls
// the node has made since the one it answers.
func TestLateReplyAnyAge(t *testing.T) {
	a, b, _, _ := pair(t)
	release := make(chan struct{})
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {
		<-release
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply})
	})
	if _, err := a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 5*time.Millisecond); err == nil {
		t.Fatal("no timeout")
	}
	for i := 0; i < 3*4096; i++ {
		if _, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	deadline := time.Now().Add(time.Second)
	for a.st.LateReplies.Load() == 0 && a.st.StrayReplies.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reply never classified")
		}
		time.Sleep(time.Millisecond)
	}
	if a.st.LateReplies.Load() != 1 || a.st.StrayReplies.Load() != 0 {
		t.Fatalf("late=%d stray=%d, want 1 0", a.st.LateReplies.Load(), a.st.StrayReplies.Load())
	}
	// An id from this node's range that it has not issued yet is stray.
	if err := b.Send(&wire.Msg{Kind: wire.KAck, To: 0, Req: uint64(0+1)<<reqSeqBits | 1<<30}); err != nil {
		t.Fatal(err)
	}
	for a.st.StrayReplies.Load() == 0 {
		if time.Now().After(deadline.Add(time.Second)) {
			t.Fatal("unissued id not counted stray")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPendingCallsDump: the watchdog's dump names the in-flight
// request and its destination.
func TestPendingCallsDump(t *testing.T) {
	a, b, _, _ := pair(t)
	stuck := make(chan struct{})
	b.Handle(wire.KDiffReq, func(m *wire.Msg) { <-stuck })
	done := make(chan struct{})
	go func() {
		_, _ = a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, time.Second)
		close(done)
	}()
	deadline := time.Now().Add(time.Second)
	for len(a.PendingCalls()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending call never visible")
		}
		time.Sleep(time.Millisecond)
	}
	dump := a.DumpPending()
	if !strings.Contains(dump, "diff-req") || !strings.Contains(dump, "to 1") {
		t.Fatalf("dump = %q", dump)
	}
	close(stuck)
	<-done
	if got := a.DumpPending(); !strings.Contains(got, "no pending") {
		t.Fatalf("dump after completion = %q", got)
	}
}

// linkRTO reads the link's timeout from rt's stall dump line to peer.
func linkRTO(t *testing.T, net *simnet.Net, from, to simnet.NodeID) time.Duration {
	t.Helper()
	line := net.Endpoint(from).(*simnet.Endpoint).LinkReport(to)
	m := regexp.MustCompile(` rto=(\S+)$`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("link report %q gives no rto", line)
	}
	d, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBlockingCallUsesButDoesNotTrain: a request whose reply waits 30ms
// on the peer (a held lock) is not retransmitted, and its wait does not
// train the link's timeout: the link acks the request on arrival, so
// the round trip it measures has no handler time in it.
func TestBlockingCallUsesButDoesNotTrain(t *testing.T) {
	net, a, b := lossyPair(t, simnet.FaultPlan{})
	b.Handle(wire.KLockReq, func(m *wire.Msg) {
		time.Sleep(30 * ms)
		_ = b.Reply(m, &wire.Msg{Kind: wire.KLockGrant})
	})
	for i := 0; i < 20; i++ {
		if _, err := a.Call(&wire.Msg{Kind: wire.KPageReq, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	before := linkRTO(t, net, 0, 1)
	if before > 2*ms {
		t.Fatalf("rto on the zero-latency simulator = %v, want within 2x of the 1ms floor", before)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Call(&wire.Msg{Kind: wire.KLockReq, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if r := a.Stats().Retries.Load() + b.Stats().Retries.Load(); r != 0 {
		t.Fatalf("%d retransmissions over three 30ms holds", r)
	}
	if after := linkRTO(t, net, 0, 1); after > 2*ms {
		t.Fatalf("the held calls moved the link's rto from %v to %v", before, after)
	}
}

// TestPendingCallSaysWhy: a stuck call's dump carries the link it waits
// on. A request the peer has (acknowledged, unacked=0) waits on the
// peer; one stuck in a partition (unacked=1, retransmitting) waits on
// the network.
func TestPendingCallSaysWhy(t *testing.T) {
	net, a, b := lossyPair(t, simnet.FaultPlan{})
	stuck := make(chan struct{})
	b.Handle(wire.KDiffReq, func(m *wire.Msg) {
		<-stuck
		_ = b.Reply(m, &wire.Msg{Kind: wire.KDiffReply})
	})
	call := func() chan struct{} {
		done := make(chan struct{})
		go func() {
			_, _ = a.CallT(&wire.Msg{Kind: wire.KDiffReq, To: 1}, 10*time.Second)
			close(done)
		}()
		return done
	}
	waitDump := func(want string) string {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			dump := a.DumpPending()
			if strings.Contains(dump, want) {
				return dump
			}
			if time.Now().After(deadline) {
				t.Fatalf("dump never showed %q: %s", want, dump)
			}
			time.Sleep(time.Millisecond)
		}
	}
	done := call()
	dump := waitDump("link 0->1: unacked=0 ")
	if !strings.Contains(dump, "[diff-req to 1 req=") {
		t.Fatalf("dump = %q", dump)
	}
	close(stuck)
	<-done
	net.Partition(0, 1, time.Hour)
	done = call()
	dump = waitDump("link 0->1: unacked=1 oldest=")
	for deadline := time.Now().Add(5 * time.Second); a.Stats().Retries.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no retransmission into the partition")
		}
	}
	if !regexp.MustCompile(`unacked=1 oldest=\S+ rto=\S+`).MatchString(dump) {
		t.Fatalf("dump = %q", dump)
	}
	net.Close()
	<-done
}

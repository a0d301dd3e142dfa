package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/nodecore"
)

// TestWatchdogDetectsStall: a held-forever lock stalls the cluster
// (one node blocked in acquire, no message progress), and the
// watchdog converts the hang into an error naming the stuck call.
func TestWatchdogDetectsStall(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, WatchdogTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			if err := n.Acquire(1); err != nil {
				return err
			}
			<-n.Runtime().Done() // hold the lock until shutdown
			return nil
		}
		time.Sleep(50 * time.Millisecond) // let node 0 win the lock
		return n.Acquire(1)               // deadlocks; the watchdog must notice
	})
	if err == nil {
		t.Fatal("stalled run returned nil")
	}
	for _, want := range []string{"watchdog", "no message progress", "lock-req"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestWatchdogSeesThroughDuplicateChatter: with an aggressive retry
// policy, a node stuck on a never-released lock keeps retransmitting
// its lock-req, and the manager suppresses every retransmit as a
// duplicate. That traffic is dispatched but useless — the watchdog's
// progress signal (UsefulDispatched) must exclude it and still fire,
// and the stall report must name the stuck call and the peer it waits
// on.
func TestWatchdogSeesThroughDuplicateChatter(t *testing.T) {
	c, err := NewCluster(Config{
		Nodes:           2,
		WatchdogTimeout: 400 * time.Millisecond,
		Retry: &nodecore.RetryPolicy{
			AttemptTimeout: 25 * time.Millisecond,
			BackoffCap:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) error {
		// Lock 2's manager is node 0 (2 % 2), so node 1's stuck
		// acquire shows up in the report as "lock-req to 0".
		if n.ID() == 0 {
			if err := n.Acquire(2); err != nil {
				return err
			}
			<-n.Runtime().Done() // hold until shutdown
			return nil
		}
		time.Sleep(50 * time.Millisecond) // let node 0 win the lock
		return n.Acquire(2)
	})
	if err == nil {
		t.Fatal("stalled run returned nil")
	}
	for _, want := range []string{"watchdog", "no message progress", "lock-req to 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// The report says why the call is slow: it has been retransmitted
	// (so the network was given its chances — the peer is not answering)
	// and names the timeout those retransmissions started from.
	m := regexp.MustCompile(`\[lock-req to 0 req=[0-9a-f]+ age=\S+ attempt=(\d+) rto=(\S+)\]`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("stall report %q does not give the stuck call's attempt and rto", err)
	}
	if attempt, _ := strconv.Atoi(m[1]); attempt < 2 {
		t.Fatalf("stuck call reported at attempt %d after 400ms of 25-50ms waits", attempt)
	}
	if rto, perr := time.ParseDuration(m[2]); perr != nil || rto < time.Millisecond || rto > 25*time.Millisecond {
		t.Fatalf("stuck call's rto = %q, want between the 1ms floor and AttemptTimeout (25ms)", m[2])
	}
	// The chatter really happened: the manager must have suppressed
	// retransmitted requests as duplicates while the watchdog counted
	// no progress. Retries without DupRequests would mean the dedup
	// table isn't seeing the traffic this test is about.
	total := c.TotalStats()
	if total.Retries == 0 {
		t.Fatal("retry policy produced no retransmissions; test scenario broken")
	}
	if total.DupRequests == 0 {
		t.Fatalf("no duplicate-suppressed requests recorded (retries=%d); watchdog was not exercised against chatter", total.Retries)
	}
}

// TestWatchdogOnStallHook: the OnStall callback receives the stall
// report (with the stuck calls named) before teardown, exactly once.
func TestWatchdogOnStallHook(t *testing.T) {
	reports := make(chan string, 4)
	c, err := NewCluster(Config{
		Nodes:           2,
		WatchdogTimeout: 300 * time.Millisecond,
		OnStall:         func(report string) { reports <- report },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			if err := n.Acquire(2); err != nil {
				return err
			}
			<-n.Runtime().Done()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
		return n.Acquire(2)
	})
	if err == nil {
		t.Fatal("stalled run returned nil")
	}
	select {
	case report := <-reports:
		for _, want := range []string{"watchdog", "lock-req to 0"} {
			if !strings.Contains(report, want) {
				t.Fatalf("OnStall report %q missing %q", report, want)
			}
		}
	default:
		t.Fatal("OnStall never called")
	}
	select {
	case extra := <-reports:
		t.Fatalf("OnStall called more than once: %q", extra)
	default:
	}
}

// TestWatchdogQuietOnHealthyRun: the watchdog must not fire on a run
// that is slow but making progress, nor on one computing locally.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, WatchdogTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *Node) error {
		time.Sleep(500 * time.Millisecond) // local compute, no messages
		if err := n.Acquire(1); err != nil {
			return err
		}
		if err := n.Release(1); err != nil {
			return err
		}
		return n.Barrier(0)
	})
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
}

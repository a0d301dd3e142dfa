package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
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

// TestWatchdogSeesThroughDuplicateChatter: a lock request sent into a
// partition that never heals is retransmitted by its link for as long
// as the run lasts. That chatter never reaches a runtime, so the
// watchdog still sees no progress and fires, and the stall report names
// the stuck call and the link it waits on, frames unacknowledged: the
// network, not the peer, is the holdup.
func TestWatchdogSeesThroughDuplicateChatter(t *testing.T) {
	c, err := NewCluster(Config{
		Nodes:           2,
		WatchdogTimeout: 400 * time.Millisecond,
		Faults:          &simnet.FaultPlan{}, // links on, nothing injected but the partition
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Run(func(n *Node) error {
		// Lock 2's manager is node 0 (2 % 2), so node 1's stuck
		// acquire shows up in the report as "lock-req to 0".
		if n.ID() == 0 {
			c.Partition(0, 1, time.Hour)
			return nil
		}
		time.Sleep(50 * time.Millisecond) // after the partition
		return n.Acquire(2)
	})
	if err == nil {
		t.Fatal("stalled run returned nil")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog fired after %v, window 400ms", el)
	}
	for _, want := range []string{"watchdog", "no message progress", "lock-req to 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	m := regexp.MustCompile(`link 1->0: unacked=(\d+) oldest=\S+ rto=(\S+)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("stall report %q does not give the stuck call's link", err)
	}
	if unacked, _ := strconv.Atoi(m[1]); unacked < 1 {
		t.Fatalf("stuck call's link reports %d unacked frames, want the request", unacked)
	}
	if rto, perr := time.ParseDuration(m[2]); perr != nil || rto < time.Millisecond || rto > 20*time.Millisecond {
		t.Fatalf("stuck call's link rto = %q, want between the 1ms floor and the 20ms cap", m[2])
	}
	// The chatter really happened while the watchdog counted no progress.
	if total := c.TotalStats(); total.Retries < 5 || total.MsgsDropped < total.Retries {
		t.Fatalf("retries=%d dropped=%d: the link did not keep retransmitting into the partition", total.Retries, total.MsgsDropped)
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

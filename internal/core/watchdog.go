package core

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// watchdog detects cluster-wide stalls: if no node's runtime is
// delivered any message for the configured window while requests are
// in flight, the run is declared stuck. A link retransmitting into a
// partition that never heals is loud but delivers nothing, so the count
// sees through it. The report dumps every node's pending calls and the
// links they wait on, which is usually enough to see the dependency
// cycle or the dead pair.
type watchdog struct {
	c       *Cluster
	timeout time.Duration
	stop    chan struct{}
	done    chan struct{}

	mu  sync.Mutex
	err error
}

func startWatchdog(c *Cluster, timeout time.Duration) *watchdog {
	w := &watchdog{
		c:       c,
		timeout: timeout,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.loop()
	return w
}

// halt stops the watchdog and returns its verdict (nil if it never
// fired).
func (w *watchdog) halt() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *watchdog) progress() int64 {
	var sum int64
	for _, n := range w.c.nodes {
		sum += n.rt.Dispatched()
	}
	return sum
}

func (w *watchdog) pendingCount() int {
	total := 0
	for _, n := range w.c.nodes {
		total += len(n.rt.PendingCalls())
	}
	return total
}

func (w *watchdog) loop() {
	defer close(w.done)
	tick := w.timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := w.progress()
	lastChange := time.Now()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		cur := w.progress()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) < w.timeout {
			continue
		}
		pending := w.pendingCount()
		if pending == 0 {
			// Quiet but nothing in flight: the apps are computing
			// locally, not stuck. Restart the window.
			lastChange = time.Now()
			continue
		}
		w.fire(pending)
		return
	}
}

// fire records the stall verdict and tears the cluster down so every
// blocked call unwinds (Run's per-node errors are then superseded by
// this one).
func (w *watchdog) fire(pending int) {
	var b strings.Builder
	fmt.Fprintf(&b, "core: watchdog: no message progress for %v with %d requests in flight\n", w.timeout, pending)
	for _, n := range w.c.nodes {
		b.WriteString("  ")
		b.WriteString(n.rt.DumpPending())
		b.WriteByte('\n')
	}
	report := strings.TrimRight(b.String(), "\n")
	w.mu.Lock()
	w.err = fmt.Errorf("%s", report)
	w.mu.Unlock()
	// Give the flight recorder its shot while the stuck state is still
	// live (goroutine stacks, pending tables), then tear down.
	if w.c.cfg.OnStall != nil {
		w.c.cfg.OnStall(report)
	}
	w.c.Close()
}

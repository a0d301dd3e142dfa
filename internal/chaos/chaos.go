// Package chaos is the cluster-wide fault-injection harness: it
// combines simnet's probabilistic fault plans (drops, duplicates,
// latency spikes) with a deterministic, seed-derived schedule of
// transient partitions and endpoint stalls that always heal, and
// drives the schedule against a running cluster. The chaos matrix
// test runs real workloads under this harness across protocols and
// asserts they still produce sequentially-verified results — the
// system's end-to-end robustness argument.
package chaos

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// Event is one scheduled structural fault. Partitions sever a node
// pair; stalls freeze one endpoint's receive processing. Both heal
// after Dur — the harness never injects a permanent failure, since
// the simulator's links promise delivery only on a network that
// eventually delivers.
type Event struct {
	At    time.Duration // offset from schedule start
	Stall bool          // false: partition A-B; true: stall A
	A, B  int
	Dur   time.Duration
}

// Plan is a full chaos scenario: per-message probabilistic faults
// plus a repeating schedule of structural ones.
type Plan struct {
	Faults simnet.FaultPlan
	Events []Event
	// Period re-runs the event schedule every Period until stopped;
	// zero runs it once.
	Period time.Duration
}

// DefaultPlan builds a moderate scenario for an n-node cluster:
// ~4% drops and duplicates, occasional latency spikes, and a
// repeating schedule of brief pairwise partitions and single-node
// stalls with seed-derived placement.
func DefaultPlan(n int, seed int64) Plan {
	rng := uint64(seed)*0x9e3779b97f4a7c15 + 0xdeadbeef
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	p := Plan{
		Faults: simnet.FaultPlan{
			DropProb:  0.05,
			DupProb:   0.05,
			SpikeProb: 0.02,
			Spike:     2 * time.Millisecond,
		},
		Period: 600 * time.Millisecond,
	}
	if n < 2 {
		return p
	}
	for i := 0; i < 3; i++ {
		a := next(n)
		b := (a + 1 + next(n-1)) % n
		p.Events = append(p.Events, Event{
			At:  time.Duration(50+150*i) * time.Millisecond,
			A:   a,
			B:   b,
			Dur: 60 * time.Millisecond,
		})
	}
	p.Events = append(p.Events, Event{
		At:    500 * time.Millisecond,
		Stall: true,
		A:     next(n),
		Dur:   40 * time.Millisecond,
	})
	return p
}

// Arm returns cfg running under this plan: fault injection on and the
// watchdog armed (a WatchdogTimeout the caller already set is kept).
func (p *Plan) Arm(cfg core.Config) core.Config {
	faults := p.Faults
	cfg.Faults = &faults
	if cfg.WatchdogTimeout == 0 {
		cfg.WatchdogTimeout = 30 * time.Second
	}
	return cfg
}

// Injector drives a plan's event schedule against a cluster.
type Injector struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches the schedule (repeating per plan.Period) and
// returns the injector; call Stop when the workload finishes.
func (p *Plan) Start(c *core.Cluster) *Injector {
	inj := &Injector{stop: make(chan struct{})}
	events := append([]Event(nil), p.Events...)
	period := p.Period
	inj.wg.Add(1)
	go func() {
		defer inj.wg.Done()
		for round := 0; ; round++ {
			start := time.Now()
			for _, ev := range events {
				wait := ev.At - time.Since(start)
				if wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-inj.stop:
						t.Stop()
						return
					case <-t.C:
					}
				}
				if ev.Stall {
					c.StallNode(ev.A, ev.Dur)
				} else {
					c.Partition(ev.A, ev.B, ev.Dur)
				}
			}
			if period <= 0 {
				return
			}
			wait := period - time.Since(start)
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-inj.stop:
					t.Stop()
					return
				case <-t.C:
				}
			}
		}
	}()
	return inj
}

// Stop halts the schedule. Faults already injected heal at their
// own deadlines.
func (inj *Injector) Stop() {
	close(inj.stop)
	inj.wg.Wait()
}

// Package apps provides the DSM workload suite used by the
// correctness matrix and every experiment: the kernels the classic
// DSM literature evaluates on (SOR, matrix multiply, Gaussian
// elimination, TSP branch-and-bound, task queues, reductions), a
// false-sharing microkernel, and the kv serving workload
// (internal/kv). Every app verifies its shared-memory
// result against a sequential reference computed locally, which is
// what lets the integration tests run each app under every protocol
// and node count.
package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
)

// App is one DSM workload.
type App interface {
	// Name identifies the workload in reports.
	Name() string
	// Setup allocates shared state and declares lock bindings (used
	// by entry consistency). Called once, before Run.
	Setup(c *core.Cluster) error
	// Run executes the node's share of the work; core.Cluster.Run
	// invokes it once per node concurrently.
	Run(n *core.Node) error
	// Verify reads the shared result (through node 0, honouring each
	// model's access rules) and compares with a sequential reference.
	Verify(c *core.Cluster) error
	// LocksOnly reports whether the app synchronizes exclusively
	// through locks with all shared data bound, making it legal for
	// entry consistency.
	LocksOnly() bool
}

// Scale selects workload sizes.
type Scale int

const (
	// Small sizes suit correctness tests (fractions of a second).
	Small Scale = iota
	// Medium sizes suit benchmarks.
	Medium
)

// All returns one instance of every workload at the given scale.
func All(s Scale) []App {
	switch s {
	case Small:
		return []App{
			NewSOR(24, 16, 6),
			NewMatMul(24),
			NewGauss(24),
			NewFFT(128),
			NewNBody(48, 3),
			NewPipeline(64),
			NewTSP(8),
			NewTaskQueue(40, 200),
			NewHistogram(1<<12, 16),
			NewFalseShare(4, 64),
			kv.NewSmall(),
		}
	default:
		return []App{
			NewSOR(128, 128, 20),
			NewMatMul(96),
			NewGauss(96),
			NewFFT(1024),
			NewNBody(256, 5),
			NewPipeline(1024),
			NewTSP(8),
			NewTaskQueue(256, 10),
			NewHistogram(1<<16, 32),
			NewFalseShare(32, 256),
			kv.NewMedium(),
		}
	}
}

// LockApps returns the lock-only workloads (legal under EC).
func LockApps(s Scale) []App {
	var out []App
	for _, a := range All(s) {
		if a.LocksOnly() {
			out = append(out, a)
		}
	}
	return out
}

// RunAndVerify is the standard driver: set up, run on all nodes,
// verify.
func RunAndVerify(c *core.Cluster, a App) error {
	if err := a.Setup(c); err != nil {
		return fmt.Errorf("%s setup: %w", a.Name(), err)
	}
	if err := c.Run(a.Run); err != nil {
		return fmt.Errorf("%s run: %w", a.Name(), err)
	}
	if err := a.Verify(c); err != nil {
		return fmt.Errorf("%s verify: %w", a.Name(), err)
	}
	return nil
}

// prng is a tiny deterministic generator (splitmix64) so every node
// and the sequential reference derive identical pseudo-random data.
type prng struct{ s uint64 }

func newPrng(seed uint64) *prng { return &prng{s: seed*0x9e3779b97f4a7c15 + 1} }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) float() float64 { return float64(p.next()>>11) / float64(1<<53) }

// band returns the half-open row range [lo, hi) node id of n handles
// for a block distribution of rows.
func band(rows, nodes, id int) (int, int) {
	per := rows / nodes
	rem := rows % nodes
	lo := id*per + min(id, rem)
	hi := lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

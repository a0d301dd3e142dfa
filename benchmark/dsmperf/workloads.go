package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/simnet"
)

// clients is the number of load goroutines of every workload: a DSM
// caller blocks on each access, so the load is a closed loop, and the
// host has two cores.
const clients = 2

// workload is one row of benchmark/README.md's table. Sizes are
// fixed; only the seed and the window length come from the command
// line.
type workload struct {
	name    string
	cfg     core.Config
	overTCP bool
	// waits marks a workload whose time is spent in retransmission
	// waits, not on the CPU. Its ops_per_s is ops ÷ seconds over the
	// whole window: the host's interference does not reach it, while a
	// high percentile of slices would pick the slices the fault plan
	// happened to spare and repeat three times worse between seeds.
	waits bool
	// warmOps is the fixed warm-up per client (per node for SOR),
	// part of set-up.
	warmOps int
	// maxRate bounds the per-client ops/s the sample buffer can hold;
	// a window ends early, by count, if the system outruns it.
	maxRate int
	// kv parameters; keys == 0 selects the SOR kernel.
	keys, stripes int
	dist          loadgen.Dist
	theta         float64
	mix           loadgen.Mix
}

const (
	kvKeys    = 4096
	kvStripes = 64
	// streamLen is each client's generated op stream; a client that
	// exhausts it wraps around (the oracle replays the same wrap).
	streamLen = 1 << 18
	// watchdog fails a run whose cluster stops dispatching, instead of
	// letting it hang into the driver's time limit.
	watchdog = 30 * time.Second
)

func workloads() []workload {
	return []workload{
		{
			name:    "sor_sc_sim",
			cfg:     core.Config{Nodes: 2, Protocol: core.SCFixed, PageSize: 1024, WatchdogTimeout: watchdog},
			warmOps: 600,
			maxRate: 4000,
		},
		{
			name:    "kv_read_sim",
			cfg:     core.Config{Nodes: 4, Protocol: core.SCFixed, WatchdogTimeout: watchdog},
			warmOps: 50_000,
			maxRate: 200_000,
			keys:    kvKeys, stripes: kvStripes,
			dist: loadgen.Zipfian, theta: 0.99, mix: loadgen.ReadHeavy,
		},
		{
			name:    "kv_write_tcp",
			cfg:     core.Config{Nodes: 4, Protocol: core.LRC, WatchdogTimeout: watchdog},
			overTCP: true,
			warmOps: 8_000,
			maxRate: 40_000,
			keys:    kvKeys, stripes: kvStripes,
			dist: loadgen.Uniform, mix: loadgen.WriteHeavy,
		},
		{
			name: "kv_lossy_sim",
			cfg: core.Config{Nodes: 4, Protocol: core.SCFixed, WatchdogTimeout: watchdog,
				Faults: &simnet.FaultPlan{DropProb: 0.05}},
			waits:   true,
			warmOps: 120,
			maxRate: 50_000,
			keys:    kvKeys, stripes: kvStripes,
			dist: loadgen.Zipfian, theta: 0.99, mix: loadgen.Mixed,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// load is what a workload does to a bed: the SOR kernel or the kv
// clients. A load is used for one bed only.
type load interface {
	// prepare allocates shared state and generates every input.
	prepare(b *bed) error
	// warm runs the fixed-count warm-up.
	warm(b *bed) error
	// measure runs the closed loop for d and returns what it recorded.
	measure(b *bed, d time.Duration, traced bool) (*window, error)
	// check compares the bed's final shared state with the oracle.
	check(b *bed) error
}

func (w workload) newLoad(seed int64, seconds float64) load {
	samples := int(float64(w.maxRate)*seconds) + 1
	if w.keys == 0 {
		return newSORLoad(w, samples)
	}
	return newKVLoad(w, seed, samples)
}

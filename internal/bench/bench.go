// Package bench is the experiment harness: tables over cluster.Run.
// Each experiment runs workloads on configured clusters, reads wall
// time and protocol counters off the results, and formats the tables
// and curve series that regenerate every experiment in EXPERIMENTS.md
// (E2..E16). cmd/dsmbench is the CLI front end.
package bench

import (
	"fmt"
	"io"
	"time"
)

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	// Source names the canonical result family being reproduced.
	Source string
	Run    func(w io.Writer) error
}

// All returns the experiment registry in id order.
func All() []Experiment {
	return []Experiment{
		{"e2", "Speedup curves under network latency", "Li & Hudak, TOCS 1989 (IVY speedups)", E2Speedup},
		{"e3", "Manager algorithms: central / fixed / dynamic / broadcast", "Li & Hudak, TOCS 1989 §4", sweeps["e3"].run},
		{"e4", "Algorithm classes: central-server / migration / read-replication / full-replication", "Stumm & Zhou, IEEE Computer 1990", sweeps["e4"].run},
		{"e5", "Page size and false sharing", "IVY / Munin false-sharing studies", sweeps["e5"].run},
		{"e6", "Invalidate vs update propagation (eager RC)", "Munin, ASPLOS 1991", sweeps["e6"].run},
		{"e7", "Eager vs lazy release consistency", "Keleher et al., ISCA 1992", sweeps["e7"].run},
		{"e8", "Entry consistency: data piggybacked on locks", "Midway, CMU-CS-91-170", sweeps["e8"].run},
		{"e9", "Synchronization service: locks and barriers", "queue-lock / barrier literature", E9Sync},
		{"e10", "Twin/diff ablation vs whole-page transfer", "TreadMarks diff studies", E10Diff},
		{"e11", "Simulator vs real TCP loopback: identical results, measured wire overhead", "transport-independence check", E11Transport},
		{"e12", "Message batching, diff pushes, and piggybacking", "TreadMarks/Munin communication-aggregation techniques", E12Batching},
		{"e13", "Latency histograms: where protocol time goes, fault-free and under chaos", "per-phase latency attribution (TreadMarks-style breakdowns)", E13Latency},
		{"e14", "Trace-powered data-race and SC-violation detection", "vector-clock race detection (Netzer/Miller-style trace analysis)", E14RaceCheck},
		{"e15", "KV serving on the DSM: open-loop QPS and SLO tail latency across protocols, transports, and chaos", "YCSB-style serving evaluation, open-loop methodology", E15Serving},
		{"e16", "Metrics pipeline: sampler transparency, rate reconciliation, exposition validity, flight recorder on stall", "production observability for a research DSM (observation-only contract)", E16Metrics},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func header(w io.Writer, e string) {
	fmt.Fprintf(w, "\n================ %s ================\n", e)
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// us renders nanoseconds in microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// perNode divides a total by the node count for per-node averages.
func perNode(v int64, nodes int) float64 { return float64(v) / float64(nodes) }

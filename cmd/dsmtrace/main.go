// dsmtrace runs a tiny annotated DSM episode and renders the merged
// causal event timeline — a tutorial view of what a page fault, an
// invalidation, a lock handoff, or a barrier actually costs under
// each protocol. Events come from the per-node trace rings
// (internal/trace) and are ordered by vector-clock causality, so a
// receive never prints before its send even when node timestamps
// disagree.
//
// With -races the same trace feeds the race/SC checker
// (internal/racecheck) instead of the timeline renderer: the run's
// reads and writes are recorded as access events and checked for data
// races and sequential-consistency violations.
//
//	dsmtrace                 # producer-consumer under sc-fixed
//	dsmtrace -proto lrc      # same episode under lazy release consistency
//	dsmtrace -scenario lock  # a contended lock handoff
//	dsmtrace -scenario event -proto ec  # data delivered by an event firing
//	dsmtrace -json out.json  # also write a Chrome/Perfetto trace file
//	dsmtrace -races -scenario falseshare -proto ec   # page-granularity races
//	dsmtrace -races -scenario broken -chaos          # seeded coherence bug, under faults
//	dsmtrace -races -fetch host:7070,host:7071       # check a live cluster's /trace endpoints
//	dsmtrace -flight flight-node0-....json           # replay a flight-recorder stall bundle
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/racecheck"
	"repro/internal/trace"
)

func main() {
	protoName := flag.String("proto", "sc-fixed", "protocol")
	scenario := flag.String("scenario", "producer", "producer | lock | barrier | event | falseshare | sor | kvstore | broken")
	jsonFile := flag.String("json", "", "also write a Chrome trace-event file")
	races := flag.Bool("races", false, "run the race/SC checker over the episode instead of printing the timeline")
	expect := flag.String("expect", "", "assert the checker's outcome: clean | race | sharing | violation (exit 1 on mismatch)")
	fetch := flag.String("fetch", "", "comma-separated /trace debug endpoints to check instead of running a scenario (implies -races)")
	withChaos := flag.Bool("chaos", false, "run the scenario under the default chaos plan (drops, dups, latency spikes + retries)")
	flight := flag.String("flight", "", "render a flight-recorder bundle (written by -flight-dir on a stall) instead of running a scenario")
	flag.Parse()

	if *flight != "" {
		b, err := metrics.LoadBundle(*flight)
		if err != nil {
			log.Fatal(err)
		}
		if err := metrics.WriteFlightReport(os.Stdout, b); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *fetch != "" {
		streams, err := racecheck.FetchStreams(strings.Split(*fetch, ","))
		if err != nil {
			log.Fatal(err)
		}
		report(racecheck.Check(streams, racecheck.Options{}), *expect)
		return
	}

	var proto core.Protocol
	found := false
	for _, p := range core.Protocols() {
		if p.String() == *protoName {
			proto, found = p, true
			break
		}
	}
	if !found {
		log.Fatalf("unknown protocol %q", *protoName)
	}
	switch *scenario {
	case "producer", "lock", "barrier", "event", "falseshare", "sor", "kvstore", "broken":
	default:
		log.Fatalf("unknown scenario %q (valid: producer | lock | barrier | event | falseshare | sor | kvstore | broken)", *scenario)
	}

	cfg := core.Config{
		Nodes:      3,
		Protocol:   proto,
		PageSize:   256,
		EventTrace: true,
	}
	if *withChaos {
		plan := chaos.DefaultPlan(cfg.Nodes, 7)
		cfg = plan.Arm(cfg)
		cfg.Seed = 7
	}
	if *races {
		cfg.AccessTrace = true
		cfg.TraceCapacity = 1 << 17
	}
	if *scenario == "broken" {
		cfg.BreakCoherence = true
	}

	fmt.Printf("=== scenario %q under %s (3 nodes) ===\n", *scenario, proto)

	var res *cluster.Result
	var err error
	switch *scenario {
	case "sor", "kvstore":
		// Whole workloads go through the one run lifecycle. Under -races
		// the kvstore sweep must come back clean on any protocol: every
		// slot access sits inside its stripe's critical section.
		var app apps.App = apps.NewSOR(24, 16, 4)
		if *scenario == "kvstore" {
			app = kv.New(kv.Params{
				Keys: 128, Ops: 120, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 11,
			})
		}
		res, err = cluster.Run(cluster.Spec{Cfg: cfg, App: func() apps.App { return app }})
	default:
		res, err = episode(cfg, *scenario)
	}
	if err != nil {
		log.Fatal(err)
	}
	streams, s := res.Traces, res.Total()
	merged := trace.Merge(streams)
	if err := trace.CheckCausal(merged); err != nil {
		fmt.Fprintf(os.Stderr, "warning: timeline violates causality: %v\n", err)
	}
	if *races {
		rep := racecheck.Check(streams, racecheck.Options{
			PageGranularity: proto == core.EC || proto == core.ECDiff,
			ValueCheck:      !proto.ReleaseConsistent(),
		})
		report(rep, *expect)
		return
	}
	if err := trace.WriteTimeline(os.Stdout, merged); err != nil {
		log.Fatal(err)
	}
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(f, streams); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", *jsonFile)
	}
	fmt.Printf("=== done: %d events, %d messages, %d bytes, %d faults ===\n", len(merged), s.MsgsSent, s.BytesSent, s.Faults())
	if s.Lat != nil {
		for _, h := range trace.HistogramSummaries(*s.Lat) {
			fmt.Printf("    %-12s n=%-4d p50=%.1fus p99=%.1fus max=%.1fus\n", h.Class, h.Count, h.P50Us, h.P99Us, h.MaxUs)
		}
	}
}

// episode hand-drives one of the tiny tutorial scenarios on a fresh
// simulator cluster and returns its trace streams and counters.
func episode(cfg core.Config, scenario string) (*cluster.Result, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	proto := cfg.Protocol

	data := c.MustAlloc(64)
	flagAddr := c.MustAlloc(8)
	counter := c.MustAlloc(8)
	c.Bind(1, counter, 8)

	switch scenario {
	case "producer":
		if proto.ReleaseConsistent() {
			fmt.Fprintln(os.Stderr, "note: flag spinning is only legal under the SC protocols; using barrier handoff")
			err = c.Run(func(n *core.Node) error {
				if n.ID() == 0 {
					for i := int64(0); i < 4; i++ {
						if err := n.WriteUint64(data+8*i, uint64(i+1)); err != nil {
							return err
						}
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				if n.ID() != 0 {
					v, err := n.ReadUint64(data)
					if err != nil {
						return err
					}
					_ = v
				}
				return nil
			})
		} else {
			err = c.Run(func(n *core.Node) error {
				if n.ID() == 0 {
					for i := int64(0); i < 4; i++ {
						if err := n.WriteUint64(data+8*i, uint64(i+1)); err != nil {
							return err
						}
					}
					return n.WriteUint64(flagAddr, 1)
				}
				for {
					v, err := n.ReadUint64(flagAddr)
					if err != nil {
						return err
					}
					if v == 1 {
						break
					}
				}
				_, err := n.ReadUint64(data)
				return err
			})
		}
	case "lock":
		err = c.Run(func(n *core.Node) error {
			for i := 0; i < 2; i++ {
				if err := n.Acquire(1); err != nil {
					return err
				}
				v, err := n.ReadUint64(counter)
				if err != nil {
					return err
				}
				if err := n.WriteUint64(counter, v+1); err != nil {
					return err
				}
				if err := n.Release(1); err != nil {
					return err
				}
			}
			return nil
		})
	case "barrier":
		err = c.Run(func(n *core.Node) error {
			for i := 0; i < 2; i++ {
				if err := n.WriteUint64(data+int64(n.ID())*8, uint64(i)); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
	case "event":
		c.BindEvent(2, data, 32)
		err = c.Run(func(n *core.Node) error {
			if n.ID() == 0 {
				if err := n.WriteUint64(data, 123); err != nil {
					return err
				}
				return n.EventSet(2)
			}
			if err := n.EventWait(2); err != nil {
				return err
			}
			_, err := n.ReadUint64(data)
			return err
		})
	case "falseshare":
		// Byte-disjoint per-node counters cohabiting pages: DRF at byte
		// granularity (false sharing only), a true race at page
		// granularity (EC's unit of consistency). Setup+Run only —
		// Verify legitimately fails under EC, where barriers carry no
		// coherence.
		app := apps.NewFalseShare(8, 4)
		if err = app.Setup(c); err == nil {
			err = c.Run(app.Run)
		}
	case "broken":
		// Single-writer rounds, barrier-separated: coherent under any
		// correct SC engine. BreakCoherence (set above) skips one
		// invalidation, so one node keeps serving a stale local copy —
		// the violation the SC checker must catch.
		x := c.MustAlloc(8)
		err = c.Run(func(n *core.Node) error {
			for r := 0; r < 4; r++ {
				if n.ID() == 0 {
					if err := n.WriteUint64(x, uint64(100+r)); err != nil {
						return err
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				if _, err := n.ReadUint64(x); err != nil {
					return err
				}
				if err := n.Barrier(1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return &cluster.Result{Nodes: c.Stats(), Traces: c.TraceStreams()}, err
}

// report prints the checker's findings and exits nonzero when the
// outcome misses the -expect assertion (or, without one, when the run
// is not clean).
func report(rep *racecheck.Report, expect string) {
	fmt.Print(rep.String())
	ok := true
	switch expect {
	case "":
		ok = rep.Clean()
	case "clean":
		ok = rep.Clean()
	case "race":
		ok = rep.RaceCount > 0
	case "sharing":
		ok = rep.FalseShareCount > 0
	case "violation":
		ok = rep.ViolationCount > 0
	default:
		log.Fatalf("unknown -expect %q (valid: clean | race | sharing | violation)", expect)
	}
	if expect == "" {
		expect = "clean"
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "FAIL: expected %s, got %d race(s), %d sharing pair(s), %d violation(s)\n",
			expect, rep.RaceCount, rep.FalseShareCount, rep.ViolationCount)
		os.Exit(1)
	}
	fmt.Printf("OK: outcome is %s\n", expect)
}

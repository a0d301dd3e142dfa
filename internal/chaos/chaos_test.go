package chaos

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
)

// TestChaosMatrix runs real workloads under fault injection —
// drops, duplicates, latency spikes, healing partitions, endpoint
// stalls — across representative protocols from each consistency
// class, and requires the sequentially-verified result every time.
// It also requires that faults actually happened (the network
// dropped messages and the runtime retried), so a silently disabled
// injector can't produce a vacuous pass.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	workloads := []func() apps.App{
		func() apps.App { return apps.NewSOR(24, 16, 6) },
		func() apps.App { return apps.NewMatMul(24) },
		func() apps.App { return apps.NewTaskQueue(40, 200) },
		// The serving workload: fine-grained skewed Get/Put/Delete
		// traffic whose checksum is a pure function of the op streams —
		// chaos may slow it down, never change its answer.
		func() apps.App {
			return kv.New(kv.Params{Keys: 256, Ops: 200, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 23})
		},
	}
	protocols := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC}
	const nodes = 4
	// Each cell also runs with message batching on: KBatch frames,
	// diff pushes, and barrier-piggybacked diffs must survive drops,
	// duplicates, and partitions exactly like plain messages (pushes
	// are advisory; batch members carry their own request ids).
	for _, mk := range workloads {
		for _, proto := range protocols {
			for _, batch := range []bool{false, true} {
				app := mk()
				proto := proto
				batch := batch
				name := fmt.Sprintf("%s/%s", app.Name(), proto)
				if batch {
					name += "/batch"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					seed := int64(len(name))*7919 + 17
					plan := DefaultPlan(nodes, seed)
					cfg := plan.Arm(core.Config{Nodes: nodes, Protocol: proto, Seed: seed})
					cfg.Batch = batch
					c, err := core.NewCluster(cfg)
					if err != nil {
						t.Fatalf("NewCluster: %v", err)
					}
					defer c.Close()
					inj := plan.Start(c)
					err = apps.RunAndVerify(c, app)
					inj.Stop()
					if err != nil {
						t.Fatalf("under chaos: %v", err)
					}
					total := c.TotalStats()
					if total.MsgsDropped == 0 {
						t.Errorf("no messages dropped — fault injection inactive? stats: %v", total)
					}
					if total.Retries == 0 {
						t.Errorf("no retries recorded — reliability layer inactive? stats: %v", total)
					}
					t.Logf("stats: %v", total)
					if total.StrayReplies > 0 {
						t.Errorf("stray replies under chaos: %d (late duplicates should be classified separately)", total.StrayReplies)
					}
				})
			}
		}
	}
}

// TestDefaultPlanDeterministic pins the seed-derived schedule: the
// same seed must yield the same events, different seeds (usually)
// different ones.
func TestDefaultPlanDeterministic(t *testing.T) {
	a := DefaultPlan(8, 42)
	b := DefaultPlan(8, 42)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for _, ev := range a.Events {
		if ev.Dur <= 0 {
			t.Fatalf("event %+v never heals", ev)
		}
		if !ev.Stall && ev.A == ev.B {
			t.Fatalf("self-partition %+v", ev)
		}
	}
	if a.Faults.Validate() != nil {
		t.Fatalf("default fault plan invalid: %v", a.Faults.Validate())
	}
}

package kv_test

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
)

// runSim executes one kvstore run on the simulator and returns the
// cluster checksum and the aggregated op-latency p99 (ns).
func runSim(t *testing.T, cfg core.Config, s *kv.Store) (uint64, int64) {
	t.Helper()
	res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: func() apps.App { return s }})
	if err != nil {
		t.Fatal(err)
	}
	var p99 int64
	if lat := res.Total().Lat; lat != nil {
		p99 = lat.Op.Quantile(0.99)
	}
	return res.Checksum, p99
}

// TestKVSmoke is the serving regression gate: the same kvstore
// configuration on the simulator and on a real TCP loopback cluster
// must verify, produce bit-identical checksums, and record a nonzero
// op-latency p99 on both transports.
func TestKVSmoke(t *testing.T) {
	p := kv.Params{Keys: 256, Ops: 200, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 17}
	cfg := core.Config{
		Nodes:       3,
		Protocol:    core.LRC,
		EventTrace:  true,
		CallTimeout: 30 * time.Second,
	}
	simSum, simP99 := runSim(t, cfg, kv.New(p))
	if simP99 == 0 {
		t.Fatal("simulator run recorded no op-latency p99")
	}

	if testing.Short() {
		t.Skip("TCP loopback cluster is slow")
	}
	res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: func() apps.App { return kv.New(p) }, TCP: true})
	if err != nil {
		t.Fatalf("tcp loopback: %v", err)
	}
	if !res.HasChecksum {
		t.Fatal("tcp loopback returned no checksum")
	}
	if res.Checksum != simSum {
		t.Fatalf("tcp checksum %016x differs from simulator %016x", res.Checksum, simSum)
	}
	tcpOps := int64(0)
	for i, st := range res.Nodes {
		if st.Lat == nil {
			t.Fatalf("tcp node %d carries no latency histograms", i)
		}
		tcpOps += st.Lat.Op.Count
		if p99 := st.Lat.Op.Quantile(0.99); p99 == 0 {
			t.Fatalf("tcp node %d op p99 is zero over %d ops", i, st.Lat.Op.Count)
		}
	}
	if want := int64(cfg.Nodes * p.Ops); tcpOps != want {
		t.Fatalf("tcp cluster recorded %d op latencies, want %d", tcpOps, want)
	}
}

// TestKVOpenLoopPacing pins the target-QPS schedule: a paced run
// cannot finish before its schedule, and the per-node reports carry
// the achieved rate.
func TestKVOpenLoopPacing(t *testing.T) {
	const qps = 400.0
	s := kv.New(kv.Params{Keys: 64, Ops: 40, QPS: qps, Mix: loadgen.ReadHeavy, Seed: 3})
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.ERCInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := apps.RunAndVerify(c, s); err != nil {
		t.Fatal(err)
	}
	reports := s.Reports()
	if len(reports) != 2 {
		t.Fatalf("got %d node reports, want 2", len(reports))
	}
	minElapsed := time.Duration(float64(s.Params().Ops-1) / qps * float64(time.Second))
	for _, r := range reports {
		if r.Elapsed < minElapsed {
			t.Fatalf("node %d finished %d paced ops in %v, schedule needs >= %v", r.Node, r.Ops, r.Elapsed, minElapsed)
		}
		if r.AchievedQPS <= 0 || r.AchievedQPS > qps*1.25 {
			t.Fatalf("node %d achieved %.0f QPS against a %.0f target", r.Node, r.AchievedQPS, qps)
		}
		if r.Gets+r.Puts+r.Dels != r.Ops {
			t.Fatalf("node %d op counts don't add up: %+v", r.Node, r)
		}
	}
}

// TestKVEntryConsistency runs the store under EC, the strictest
// legality bar: every shared byte must be bound to a lock and only
// touched inside its critical section, or the run faults.
func TestKVEntryConsistency(t *testing.T) {
	s := kv.New(kv.Params{Keys: 128, Ops: 150, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.WriteHeavy, Seed: 5})
	c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: core.EC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := apps.RunAndVerify(c, s); err != nil {
		t.Fatal(err)
	}
}

// TestKVChecksumDetectsDivergence: two different seeds must not
// produce the same store image (the checksum actually discriminates).
func TestKVChecksumDetectsDivergence(t *testing.T) {
	sums := map[int64]uint64{}
	for _, seed := range []int64{1, 2} {
		s := kv.New(kv.Params{Keys: 64, Ops: 100, Mix: loadgen.Mixed, Seed: seed})
		c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.SCFixed})
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.RunAndVerify(c, s); err != nil {
			c.Close()
			t.Fatal(err)
		}
		sums[seed], err = s.Checksum(c.Node(0))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if sums[1] == sums[2] {
		t.Fatalf("seeds 1 and 2 produced the same checksum %016x", sums[1])
	}
}

// TestKVParamValidation: malformed geometry must fail in Setup, not
// corrupt a run.
func TestKVParamValidation(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: core.SCFixed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := []kv.Params{
		{Keys: 100, Ops: 10, Mix: loadgen.Mixed, Seed: 1},              // not a power of two
		{Keys: 4, Ops: 10, Mix: loadgen.Mixed, Seed: 1},                // too small for 3 nodes
		{Keys: 64, Ops: 10, Mix: loadgen.Mixed, Seed: 1, Stripes: 3},   // stripes not a power of two
		{Keys: 64, Ops: 10, Mix: loadgen.Mixed, Seed: 1, Stripes: 128}, // more stripes than keys
	}
	for i, p := range bad {
		if err := kv.New(p).Setup(c); err == nil {
			t.Fatalf("bad params %d accepted: %+v", i, p)
		}
	}
}

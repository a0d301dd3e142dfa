package bench

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/nodecore"
	"repro/internal/racecheck"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// E2Speedup reproduces the IVY-style speedup curves as *modeled*
// speedup, the standard methodology of the era's simulation studies
// (and a necessity here: sub-millisecond wall-clock latency injection
// is hostage to OS timer granularity, and a single-CPU host cannot
// exhibit real parallel speedup at all). The protocols run on a
// zero-latency network, where message and byte counters are exact;
// each node's modeled execution time is then
//
//	T_i = accesses_i·c  +  (msgs_i/2)·L  +  (bytes_i/2)·B
//
// with c calibrated from the single-node run, L the one-way message
// latency, B the per-byte cost, and msgs_i/bytes_i the node's sent
// plus received traffic (halved: each message appears once at the
// sender and once at the receiver, and roughly every other message
// on a node's critical path is a reply it waited for). The modeled
// cluster time is max_i T_i — computation is perfectly overlapped,
// communication is charged to the node that performs it. The model
// captures latency and bandwidth but not queueing delay, so highly
// contended locks look better than they would measure; EXPERIMENTS.md
// discusses this limit.
//
// Expected shapes: the page-aligned stencil and the task farm keep
// near-constant communication per sweep while computation divides by
// N, so speedup climbs; demand-paged matrix multiply moves the whole
// of B into every node one page-fetch at a time, the latency-bound
// pattern that made demand fetching scale poorly in the era's
// measurements, and LRC's smaller transfer volume shows up directly.
func E2Speedup(w io.Writer) error {
	const lat = 100 * time.Microsecond
	const perByte = 5 * time.Nanosecond
	header(w, "E2: modeled speedup vs nodes (L=100µs one-way, B=5ns/byte)")
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC}
	nodeCounts := []int{1, 2, 4, 8, 16}
	type workload struct {
		mk   func() apps.App
		page int
	}
	suite := []workload{
		// 256 columns × 8 bytes = exactly one 2048-byte page per grid
		// row, the page-aligned partitioning the era's evaluations
		// used to keep band boundaries off shared pages.
		{func() apps.App { return apps.NewSOR(192, 256, 8) }, 2048},
		// Coarse tasks: ~6ms of computation per task against ~1.5ms
		// of lock traffic, the regime of the task-management speedup
		// figures (efficiency then decays as nodes outrun the queue).
		{func() apps.App { return apps.NewTaskQueue(64, 6000000) }, 1024},
		{func() apps.App { return apps.NewMatMul(216) }, 4096},
	}
	for _, wl := range suite {
		t := stats.NewTable("app", "protocol", "nodes", "model_ms", "speedup", "msgs", "kbytes")
		var chart *stats.Chart
		for _, proto := range protos {
			var base time.Duration
			var accessCost time.Duration
			for _, n := range nodeCounts {
				app := wl.mk()
				c, err := core.NewCluster(core.Config{
					Nodes:     n,
					Protocol:  proto,
					PageSize:  wl.page,
					HeapBytes: 1 << 22,
				})
				if err != nil {
					return err
				}
				if err := app.Setup(c); err != nil {
					c.Close()
					return err
				}
				start := time.Now()
				if err := c.Run(app.Run); err != nil {
					c.Close()
					return err
				}
				wall := time.Since(start)
				if err := app.Verify(c); err != nil {
					c.Close()
					return err
				}
				perNode := c.Stats()
				total := stats.Sum(perNode)
				c.Close()

				if n == 1 {
					// Calibrate: single-node wall time is pure local
					// computation (all messages are loopback).
					acc := total.Reads + total.Writes
					if acc == 0 {
						acc = 1
					}
					accessCost = wall / time.Duration(acc)
				}
				var worst time.Duration
				for _, s := range perNode {
					ti := time.Duration(s.Reads+s.Writes)*accessCost +
						time.Duration(s.MsgsSent+s.MsgsRecv)/2*lat +
						time.Duration(s.BytesSent+s.BytesRecv)/2*perByte
					if ti > worst {
						worst = ti
					}
				}
				if n == 1 {
					base = worst
				}
				if chart == nil {
					chart = stats.NewChart("figure: modeled speedup — "+app.Name(), "nodes", "speedup")
				}
				chart.Add(proto.String(), float64(n), float64(base)/float64(worst))
				t.AddRow(app.Name(), proto.String(), n, ms(worst), float64(base)/float64(worst),
					total.MsgsSent, float64(total.BytesSent)/1024)
			}
		}
		fmt.Fprintln(w, t)
		fmt.Fprintln(w, chart)
	}
	return nil
}

// E3Managers compares Li & Hudak's four page-locating strategies on
// identical workloads with a zero-latency network, counting the
// protocol's intrinsic message costs. Expected shape: broadcast
// floods requests, central doubles per-fault messages versus fixed
// (every transaction detours through node 0 and confirms), dynamic
// pays occasional forwarding hops but no manager detour.
func E3Managers(w io.Writer) error {
	header(w, "E3: manager algorithms (zero latency, message counts)")
	protos := []core.Protocol{core.SCCentral, core.SCFixed, core.SCDynamic, core.SCBroadcast}
	suite := func() []apps.App {
		return []apps.App{apps.NewSOR(48, 32, 6), apps.NewTaskQueue(64, 300)}
	}
	for ai := range suite() {
		t := stats.NewTable("app", "locator", "faults", "msgs", "kbytes", "forwards", "page_xfers")
		for _, proto := range protos {
			app := suite()[ai]
			res, err := Run(core.Config{
				Nodes:     6,
				Protocol:  proto,
				PageSize:  512,
				HeapBytes: 1 << 20,
			}, app)
			if err != nil {
				return err
			}
			t.AddRow(res.App, proto.String(), res.Stats.Faults(), res.Stats.MsgsSent,
				float64(res.Stats.BytesSent)/1024, res.Stats.Forwards, res.Stats.PageTransfers)
		}
		fmt.Fprintln(w, t)
	}
	return nil
}

// E4Classes reproduces the Stumm & Zhou algorithm-class comparison:
// central-server vs migration vs read-replication vs full-replication
// across a read-heavy, a write-heavy, and a mixed workload. Expected
// shape: central-server's message count tracks every access;
// migration thrashes when two nodes interleave on one page;
// read-replication wins read sharing; full-replication makes reads
// free and writes globally expensive.
func E4Classes(w io.Writer) error {
	header(w, "E4: algorithm classes (message/byte costs)")
	protos := []core.Protocol{core.CentralServer, core.Migrate, core.SCFixed, core.FullReplication}
	suite := func() []apps.App {
		return []apps.App{
			apps.NewMatMul(48),         // read-heavy
			apps.NewFalseShare(12, 32), // write-heavy
			apps.NewSOR(48, 32, 6),     // mixed
		}
	}
	for ai := range suite() {
		t := stats.NewTable("app", "class", "time_ms", "msgs", "kbytes", "remote_reads", "remote_writes", "page_xfers")
		for _, proto := range protos {
			app := suite()[ai]
			res, err := Run(core.Config{
				Nodes:     5,
				Protocol:  proto,
				PageSize:  512,
				HeapBytes: 1 << 20,
			}, app)
			if err != nil {
				return err
			}
			t.AddRow(res.App, proto.String(), ms(res.Elapsed), res.Stats.MsgsSent,
				float64(res.Stats.BytesSent)/1024, res.Stats.DirectReads, res.Stats.DirectWrites,
				res.Stats.PageTransfers)
		}
		fmt.Fprintln(w, t)
	}
	return nil
}

// E5PageSize sweeps the page size for a boundary-sharing stencil and
// the false-sharing microkernel. Expected shape: single-writer SC
// degrades as pages grow (false sharing induces ping-ponging), while
// the multiple-writer protocols stay flat in faults and only grow in
// bytes.
func E5PageSize(w io.Writer) error {
	header(w, "E5: page size and false sharing")
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC}
	suite := func() []apps.App {
		return []apps.App{apps.NewSOR(48, 32, 6), apps.NewFalseShare(12, 32)}
	}
	for ai := range suite() {
		t := stats.NewTable("app", "protocol", "page", "time_ms", "faults", "msgs", "kbytes")
		var chart *stats.Chart
		for _, proto := range protos {
			for _, ps := range []int{128, 512, 2048} {
				app := suite()[ai]
				res, err := Run(core.Config{
					Nodes:     5,
					Protocol:  proto,
					PageSize:  ps,
					HeapBytes: 1 << 21,
				}, app)
				if err != nil {
					return err
				}
				if chart == nil {
					chart = stats.NewChart("figure: traffic vs page size — "+res.App, "page_B", "kbytes")
				}
				chart.Add(proto.String(), float64(ps), float64(res.Stats.BytesSent)/1024)
				t.AddRow(res.App, proto.String(), ps, ms(res.Elapsed), res.Stats.Faults(),
					res.Stats.MsgsSent, float64(res.Stats.BytesSent)/1024)
			}
		}
		fmt.Fprintln(w, t)
		fmt.Fprintln(w, chart)
	}
	return nil
}

// E6UpdateInv compares eager-RC propagation flavors against SC.
// Expected shape: update propagation trades bytes for faults —
// consumers never refetch (few faults, more update traffic);
// invalidation refetches whole pages on demand.
func E6UpdateInv(w io.Writer) error {
	header(w, "E6: invalidate vs update propagation")
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.ERCUpdate}
	suite := func() []apps.App {
		return []apps.App{apps.NewSOR(48, 32, 6), apps.NewFalseShare(12, 32), apps.NewHistogram(1<<13, 32)}
	}
	for ai := range suite() {
		t := stats.NewTable("app", "protocol", "faults", "msgs", "kbytes", "invalidations", "updates")
		for _, proto := range protos {
			app := suite()[ai]
			res, err := Run(core.Config{
				Nodes:     5,
				PageSize:  512,
				HeapBytes: 1 << 20,
				Protocol:  proto,
			}, app)
			if err != nil {
				return err
			}
			t.AddRow(res.App, proto.String(), res.Stats.Faults(), res.Stats.MsgsSent,
				float64(res.Stats.BytesSent)/1024, res.Stats.Invalidations, res.Stats.UpdatesApplied)
		}
		fmt.Fprintln(w, t)
	}
	return nil
}

// E7LazyEager reproduces the eager-vs-lazy RC comparison, extended
// with home-based LRC: eager RC propagates everything at release;
// homeless LRC moves consistency information on sync edges and data
// only on demand; HLRC flushes diffs to homes at release but
// validates with one page fetch. Expected shape: LRC sends the
// fewest messages and bytes; HLRC sits between (flush traffic at
// release, whole pages on faults, but no diff retention); eager RC
// pays the most.
func E7LazyEager(w io.Writer) error {
	header(w, "E7: eager vs lazy vs home-based release consistency")
	t := stats.NewTable("app", "protocol", "time_ms", "msgs", "kbytes", "faults", "diffs", "diff_fetches", "notices")
	suite := func() []apps.App {
		return []apps.App{
			apps.NewSOR(48, 32, 6),
			apps.NewFalseShare(12, 32),
			apps.NewTaskQueue(64, 300),
			apps.NewHistogram(1<<13, 32),
		}
	}
	for ai := range suite() {
		for _, proto := range []core.Protocol{core.ERCInvalidate, core.HLRC, core.LRC} {
			app := suite()[ai]
			res, err := Run(core.Config{
				Nodes:     5,
				PageSize:  512,
				HeapBytes: 1 << 20,
				Protocol:  proto,
			}, app)
			if err != nil {
				return err
			}
			t.AddRow(res.App, proto.String(), ms(res.Elapsed), res.Stats.MsgsSent,
				float64(res.Stats.BytesSent)/1024, res.Stats.Faults(), res.Stats.DiffsCreated,
				res.Stats.DiffFetches, res.Stats.WriteNotices)
		}
	}
	fmt.Fprintln(w, t)
	return nil
}

// E8Entry reproduces Midway's claim: binding data to locks makes a
// contended handoff a single message carrying both permission and
// data. Expected shape: EC has the lowest message count on
// lock-migratory workloads; its grant-payload bytes replace the
// faults and page transfers the paged protocols pay.
func E8Entry(w io.Writer) error {
	header(w, "E8: entry consistency vs paged protocols (lock-only apps)")
	t := stats.NewTable("app", "protocol", "time_ms", "msgs", "kbytes", "faults", "grant_kb", "locks")
	suite := func() []apps.App {
		return []apps.App{apps.NewTaskQueue(64, 300), apps.NewTSP(8), apps.NewHistogram(1<<13, 32)}
	}
	for ai := range suite() {
		for _, proto := range []core.Protocol{core.SCFixed, core.LRC, core.EC, core.ECDiff} {
			app := suite()[ai]
			res, err := Run(core.Config{
				Nodes:     5,
				PageSize:  512,
				HeapBytes: 1 << 20,
				Protocol:  proto,
			}, app)
			if err != nil {
				return err
			}
			t.AddRow(res.App, proto.String(), ms(res.Elapsed), res.Stats.MsgsSent,
				float64(res.Stats.BytesSent)/1024, res.Stats.Faults(),
				float64(res.Stats.GrantPayloadBytes)/1024, res.Stats.LockAcquires)
		}
	}
	fmt.Fprintln(w, t)
	return nil
}

// E9Sync measures the synchronization service itself: contended and
// uncontended lock handoff, and barrier cost centralized versus
// tree. Expected shape: uncontended acquire is one round trip;
// contended handoff adds the forward to the last releaser. For
// barriers the scalability argument is hub load: the centralized
// barrier funnels 2N messages per episode through one endpoint
// (hub_msgs grows linearly with N), while the tree bounds every
// endpoint at ~2(fanout+1) regardless of N — that bounded hub load
// is why combining trees win on real networks whose endpoints
// serialize message processing. (Wall time in this in-process
// simulator favours fewer hops, i.e. the centralized barrier; the
// simnet RecvOccupancy model exists to recover endpoint serialization
// when wall-clock fidelity at the microsecond scale is not needed.)
func E9Sync(w io.Writer) error {
	header(w, "E9: lock and barrier service")
	t := stats.NewTable("benchmark", "nodes", "ops", "total_ms", "us_per_op", "msgs", "hub_msgs_per_op")
	lockBench := func(nodes, perNode int, contended bool) error {
		c, err := core.NewCluster(core.Config{Nodes: nodes, PageSize: 256, HeapBytes: 1 << 16, Protocol: core.SCFixed})
		if err != nil {
			return err
		}
		defer c.Close()
		start := time.Now()
		err = c.Run(func(n *core.Node) error {
			lock := int32(1)
			if !contended {
				lock = int32(10 + n.ID()) // one private lock per node
			}
			for i := 0; i < perNode; i++ {
				if err := n.Acquire(lock); err != nil {
					return err
				}
				if err := n.Release(lock); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		ops := nodes * perNode
		name := "lock-uncontended"
		if contended {
			name = "lock-contended"
		}
		hub := int64(0)
		for _, s := range c.Stats() {
			if s.MsgsRecv > hub {
				hub = s.MsgsRecv
			}
		}
		t.AddRow(name, nodes, ops, ms(elapsed),
			float64(elapsed.Microseconds())/float64(ops), c.TotalStats().MsgsSent,
			float64(hub)/float64(ops))
		return nil
	}
	barBench := func(nodes, rounds int, tree bool) error {
		c, err := core.NewCluster(core.Config{
			Nodes: nodes, PageSize: 256, HeapBytes: 1 << 16,
			Protocol: core.SCFixed, TreeBarrier: tree, TreeFanout: 4,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		start := time.Now()
		err = c.Run(func(n *core.Node) error {
			for i := 0; i < rounds; i++ {
				if err := n.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		name := "barrier-central"
		if tree {
			name = "barrier-tree-f4"
		}
		hub := int64(0)
		for _, s := range c.Stats() {
			if s.MsgsRecv > hub {
				hub = s.MsgsRecv
			}
		}
		t.AddRow(name, nodes, rounds, ms(elapsed),
			float64(elapsed.Microseconds())/float64(rounds), c.TotalStats().MsgsSent,
			float64(hub)/float64(rounds))
		return nil
	}
	for _, nodes := range []int{4, 16} {
		if err := lockBench(nodes, 200, false); err != nil {
			return err
		}
		if err := lockBench(nodes, 200, true); err != nil {
			return err
		}
	}
	for _, nodes := range []int{16, 48} {
		if err := barBench(nodes, 100, false); err != nil {
			return err
		}
		if err := barBench(nodes, 100, true); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, t)
	return nil
}

// E10Diff is the twin/diff ablation: encoded diff size and
// create+apply cost versus write density, against shipping the whole
// page. Expected shape: diffs win below roughly half-page density
// and lose (in bytes) only as the page approaches fully rewritten.
func E10Diff(w io.Writer) error {
	header(w, "E10: diff size and cost vs write density (4096-byte page)")
	const pageSize = 4096
	t := stats.NewTable("bytes_written", "diff_bytes", "vs_full_page", "create_us", "apply_us")
	for _, density := range []int{8, 64, 256, 1024, 2048, 4096} {
		base := make([]byte, pageSize)
		cur := append([]byte(nil), base...)
		stride := pageSize / density
		if stride == 0 {
			stride = 1
		}
		written := 0
		for i := 0; i < pageSize && written < density; i += stride {
			cur[i] = byte(i + 1)
			written++
		}
		var diff []byte
		const reps = 200
		start := time.Now()
		for r := 0; r < reps; r++ {
			diff = mem.CreateDiff(base, cur)
		}
		create := time.Since(start) / reps
		dst := make([]byte, pageSize)
		start = time.Now()
		for r := 0; r < reps; r++ {
			if err := mem.ApplyDiff(dst, diff); err != nil {
				return err
			}
		}
		apply := time.Since(start) / reps
		t.AddRow(written, len(diff), float64(len(diff))/float64(pageSize),
			float64(create.Nanoseconds())/1000, float64(apply.Nanoseconds())/1000)
	}
	fmt.Fprintln(w, t)
	return nil
}

// E11Transport measures the same workloads on the in-process
// simulator and on a real 3-process-shaped TCP loopback cluster (one
// transport, heap, and engine per node, real sockets between them).
// Two things are on display: the results are byte-identical — the
// protocols genuinely don't care what carries their messages — and
// the traffic differs in an instructive way. The TCP rows carry more
// messages than the simulator rows because distributed mode runs the
// reliability layer (retransmission + dedup against reconnect
// losses, its confirm tokens riding along) plus a shutdown barrier
// to keep processes alive through verification; the table reports
// both the protocol-level and transport-level counts so the two
// layers can be compared directly.
func E11Transport(w io.Writer) error {
	header(w, "E11: simulator vs real TCP loopback (3 nodes, lrc)")
	workloads := []struct {
		name string
		mk   func() apps.App
	}{
		{"sor", func() apps.App { return apps.NewSOR(24, 16, 6) }},
		{"matmul", func() apps.App { return apps.NewMatMul(24) }},
		{"taskqueue", func() apps.App { return apps.NewTaskQueue(40, 200) }},
	}
	cfg := core.Config{Nodes: 3, Protocol: core.LRC, CallTimeout: 30 * time.Second}
	t := stats.NewTable("app", "transport", "elapsed_ms", "proto_msgs", "wire_msgs", "wire_bytes", "checksum")
	for _, wl := range workloads {
		// Simulator run.
		simApp := wl.mk()
		c, err := core.NewCluster(cfg)
		if err != nil {
			return err
		}
		if err := simApp.Setup(c); err != nil {
			c.Close()
			return err
		}
		simStart := time.Now()
		if err := c.Run(simApp.Run); err != nil {
			c.Close()
			return err
		}
		simElapsed := time.Since(simStart)
		if err := simApp.Verify(c); err != nil {
			c.Close()
			return err
		}
		simSum, err := simApp.(apps.Checker).Checksum(c.Node(0))
		if err != nil {
			c.Close()
			return err
		}
		simNet := c.TransportCounters()
		simProto := c.TotalStats().MsgsSent
		c.Close()
		t.AddRow(wl.name, "sim", ms(simElapsed), simProto, simNet.MsgsSent, simNet.BytesSent,
			fmt.Sprintf("%016x", simSum))

		// Real TCP loopback run.
		results, err := cluster.Loopback(cfg, wl.mk, true)
		if err != nil {
			return fmt.Errorf("%s over tcp: %w", wl.name, err)
		}
		var tcpElapsed time.Duration
		var tcpNet transport.CountersSnapshot
		var tcpProto int64
		for _, r := range results {
			if r.Elapsed > tcpElapsed {
				tcpElapsed = r.Elapsed
			}
			tcpNet = tcpNet.Add(r.Net)
			tcpProto += r.Stats.MsgsSent
		}
		if !results[0].HasChecksum {
			return fmt.Errorf("%s over tcp: no checksum", wl.name)
		}
		t.AddRow(wl.name, "tcp", ms(tcpElapsed), tcpProto, tcpNet.MsgsSent, tcpNet.BytesSent,
			fmt.Sprintf("%016x", results[0].Checksum))
		if results[0].Checksum != simSum {
			return fmt.Errorf("%s: tcp result %016x differs from simulator %016x",
				wl.name, results[0].Checksum, simSum)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "checksums match per app: the protocols are transport-independent. The tcp rows carry")
	fmt.Fprintln(w, "a few extra messages — the reliability layer's confirm/retransmit traffic and the")
	fmt.Fprintln(w, "shutdown barrier that keeps node processes alive through verification.")
	return nil
}

// E12Batching measures the message-batching layer: with
// core.Config.Batch on, one-way messages share transport frames with
// other traffic to the same destination, same-destination request
// groups (HLRC/ERC home flushes) travel as one KBatch frame, and
// homeless LRC pushes interval diffs to the readers that fetched them
// before, turning most diff request/reply round trips into single
// one-way pushes. Expected shape: SOR+lrc drops well over 30% of its
// transport messages (the diff round trips dominate its traffic);
// hlrc and erc-invalidate save by merging their per-page release
// flushes. The TCP loopback rows show the same batched protocol on
// real sockets producing checksums identical to the simulator —
// batching changes framing, never results.
func E12Batching(w io.Writer) error {
	header(w, "E12: message batching, diff pushes, and piggybacking")
	mk := func() apps.App { return apps.NewSOR(48, 32, 6) }
	t := stats.NewTable("app", "protocol", "batch", "transport", "elapsed_ms", "msgs", "kbytes", "batched", "frames", "pushes", "checksum")
	var lrcOff, lrcOn int64
	var simSum uint64
	for _, proto := range []core.Protocol{core.LRC, core.HLRC, core.ERCInvalidate} {
		for _, batch := range []bool{false, true} {
			app := mk()
			c, err := core.NewCluster(core.Config{
				Nodes:     5,
				PageSize:  512,
				HeapBytes: 1 << 20,
				Protocol:  proto,
				Batch:     batch,
			})
			if err != nil {
				return err
			}
			if err := app.Setup(c); err != nil {
				c.Close()
				return err
			}
			start := time.Now()
			if err := c.Run(app.Run); err != nil {
				c.Close()
				return err
			}
			elapsed := time.Since(start)
			if err := app.Verify(c); err != nil {
				c.Close()
				return err
			}
			sum, err := app.(apps.Checker).Checksum(c.Node(0))
			if err != nil {
				c.Close()
				return err
			}
			st := c.TotalStats()
			net := c.TransportCounters()
			c.Close()
			onOff := "off"
			if batch {
				onOff = "on"
			}
			t.AddRow(app.Name(), proto.String(), onOff, "sim", ms(elapsed), net.MsgsSent,
				float64(net.BytesSent)/1024, st.BatchedMsgs, st.FlushedBatches, st.DiffPushes,
				fmt.Sprintf("%016x", sum))
			if proto == core.LRC {
				if batch {
					lrcOn = net.MsgsSent
				} else {
					lrcOff = net.MsgsSent
					simSum = sum
				}
			}
		}
	}

	// The same batched protocol over real TCP sockets (3-process-shaped
	// loopback cluster, smaller grid as in E11): identical results.
	tcpCfg := core.Config{Nodes: 3, Protocol: core.LRC, CallTimeout: 30 * time.Second}
	tcpMk := func() apps.App { return apps.NewSOR(24, 16, 6) }
	tcpSims := make(map[bool]uint64)
	for _, batch := range []bool{false, true} {
		cfg := tcpCfg
		cfg.Batch = batch
		simApp := tcpMk()
		c, err := core.NewCluster(cfg)
		if err != nil {
			return err
		}
		if err := simApp.Setup(c); err != nil {
			c.Close()
			return err
		}
		if err := c.Run(simApp.Run); err != nil {
			c.Close()
			return err
		}
		sum, err := simApp.(apps.Checker).Checksum(c.Node(0))
		if err != nil {
			c.Close()
			return err
		}
		c.Close()
		tcpSims[batch] = sum

		results, err := cluster.Loopback(cfg, tcpMk, true)
		if err != nil {
			return fmt.Errorf("sor over tcp (batch=%v): %w", batch, err)
		}
		var tcpElapsed time.Duration
		var tcpNet transport.CountersSnapshot
		var st stats.Snapshot
		for _, r := range results {
			if r.Elapsed > tcpElapsed {
				tcpElapsed = r.Elapsed
			}
			tcpNet = tcpNet.Add(r.Net)
			st = stats.Sum([]stats.Snapshot{st, r.Stats})
		}
		if !results[0].HasChecksum {
			return fmt.Errorf("sor over tcp (batch=%v): no checksum", batch)
		}
		if results[0].Checksum != sum {
			return fmt.Errorf("sor over tcp (batch=%v): tcp result %016x differs from simulator %016x",
				batch, results[0].Checksum, sum)
		}
		onOff := "off"
		if batch {
			onOff = "on"
		}
		t.AddRow("sor-24", tcpCfg.Protocol.String(), onOff, "tcp", ms(tcpElapsed), tcpNet.MsgsSent,
			float64(tcpNet.BytesSent)/1024, st.BatchedMsgs, st.FlushedBatches, st.DiffPushes,
			fmt.Sprintf("%016x", results[0].Checksum))
	}
	if tcpSims[false] != tcpSims[true] {
		return fmt.Errorf("batching changed the simulator result: %016x vs %016x", tcpSims[false], tcpSims[true])
	}
	fmt.Fprintln(w, t)
	reduction := 100 * (1 - float64(lrcOn)/float64(lrcOff))
	fmt.Fprintf(w, "sor+lrc on the simulator: %d -> %d transport messages with batching on (%.1f%% fewer).\n", lrcOff, lrcOn, reduction)
	fmt.Fprintln(w, "Diff pushes replace fetch round trips once interest is known; checksums are identical in")
	fmt.Fprintln(w, "every row — batching and pushing change framing and timing, never results.")
	_ = simSum
	return nil
}

// E13Latency attributes where each protocol's time goes using the
// event tracer's log-bucketed latency histograms: page-fault service
// time, RPC round trips, lock waits, and barrier waits, measured
// fault-free and under fault injection (drops, duplicates, latency
// spikes with retry/backoff recovery). Expected shape: LRC's lazy
// diffs give it the cheapest faults fault-free, while under chaos
// every class's tail (p99) stretches by roughly the retransmission
// timeout — latency, unlike message counts, degrades smoothly with an
// unreliable network. Each run's merged event timeline is also
// checked for vector-clock causal consistency, so the numbers come
// from a trace whose ordering is provably coherent.
func E13Latency(w io.Writer) error {
	header(w, "E13: latency histograms per protocol phase")
	plan := simnet.FaultPlan{DropProb: 0.02, DupProb: 0.01, SpikeProb: 0.02, Spike: 2 * time.Millisecond}
	t := stats.NewTable("protocol", "network", "class", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var notes []string
	for _, proto := range []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC} {
		for _, faulty := range []bool{false, true} {
			cfg := core.Config{
				Nodes:      4,
				Protocol:   proto,
				PageSize:   512,
				HeapBytes:  1 << 20,
				Seed:       7,
				EventTrace: true,
			}
			network := "fault-free"
			if faulty {
				network = "chaos"
				f := plan
				cfg.Faults = &f
				cfg.Retry = &nodecore.RetryPolicy{AttemptTimeout: 10 * time.Millisecond, BackoffCap: 80 * time.Millisecond}
				cfg.WatchdogTimeout = 30 * time.Second
			}
			c, err := core.NewCluster(cfg)
			if err != nil {
				return err
			}
			if err := apps.RunAndVerify(c, apps.NewSOR(32, 24, 4)); err != nil {
				c.Close()
				return fmt.Errorf("%s/%s: %w", proto, network, err)
			}
			streams := c.TraceStreams()
			merged := trace.Merge(streams)
			if err := trace.CheckCausal(merged); err != nil {
				c.Close()
				return fmt.Errorf("%s/%s: merged trace violates causality: %w", proto, network, err)
			}
			st := c.TotalStats()
			c.Close()
			if st.Lat == nil {
				return fmt.Errorf("%s/%s: traced run carries no latency histograms", proto, network)
			}
			for _, cl := range st.Lat.Classes() {
				if cl.Count == 0 {
					continue
				}
				t.AddRow(proto.String(), network, cl.Name, cl.Count,
					us(cl.Quantile(0.5)), us(cl.Quantile(0.9)), us(cl.Quantile(0.99)),
					us(cl.MaxNs), us(cl.MeanNs()))
			}
			notes = append(notes, fmt.Sprintf("%s/%s: %d events from %d nodes, causally ordered",
				proto, network, len(merged), len(streams)))
		}
	}
	fmt.Fprintln(w, t)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintln(w, "Counts differ across protocols because the histograms measure what each protocol")
	fmt.Fprintln(w, "actually does: write-invalidate faults on every producer/consumer handoff while")
	fmt.Fprintln(w, "lazy release consistency folds most misses into barrier-time diff fetches. The")
	fmt.Fprintln(w, "quantiles (not the means) carry the chaos story: medians barely move while p99")
	fmt.Fprintln(w, "absorbs the retransmission timeout.")
	return nil
}

// E14RaceCheck exercises the trace-powered race and consistency
// checker (internal/racecheck) as a detection matrix: the same
// workloads run under several protocols with access tracing on, and
// the checker's verdict is compared against what each combination is
// known to deserve. Clean rows validate precision (a data-race-free
// kernel must produce zero findings — the false-sharing kernel's
// byte-disjoint counters are informational, not races); the EC row
// validates page-granularity promotion (disjoint writers to one page
// genuinely corrupt each other when the page is the unit of
// consistency); and the seeded BreakCoherence row validates that the
// SC value check catches a real protocol bug — one skipped
// invalidation — from the trace alone.
func E14RaceCheck(w io.Writer) error {
	header(w, "E14: trace-powered data-race and SC-violation detection")
	t := stats.NewTable("workload", "protocol", "seeded_bug", "events", "accesses", "races", "sharing", "violations", "verdict")
	type spec struct {
		workload string
		proto    core.Protocol
		app      apps.App
		verify   bool
		broken   bool
		want     string // clean | sharing | race | violation
	}
	specs := []spec{
		{"sor", core.SCFixed, apps.NewSOR(24, 16, 4), true, false, "clean"},
		{"sor", core.LRC, apps.NewSOR(24, 16, 4), true, false, "clean"},
		{"falseshare", core.SCFixed, apps.NewFalseShare(8, 4), true, false, "sharing"},
		{"falseshare", core.LRC, apps.NewFalseShare(8, 4), true, false, "sharing"},
		// Setup+Run only: Verify legitimately fails under EC, where
		// barriers carry no coherence for unbound data.
		{"falseshare", core.EC, apps.NewFalseShare(8, 4), false, false, "race"},
		{"single-writer", core.SCFixed, nil, false, true, "violation"},
	}
	for _, s := range specs {
		c, err := core.NewCluster(core.Config{
			Nodes:          3,
			Protocol:       s.proto,
			PageSize:       256,
			HeapBytes:      1 << 20,
			AccessTrace:    true,
			TraceCapacity:  1 << 17,
			BreakCoherence: s.broken,
		})
		if err != nil {
			return err
		}
		if s.app != nil {
			err = s.app.Setup(c)
			if err == nil {
				err = c.Run(s.app.Run)
			}
			if err == nil && s.verify {
				err = s.app.Verify(c)
			}
		} else {
			// Barrier-separated single-writer rounds: coherent under any
			// correct SC engine, so every finding is the seeded bug.
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
		if err != nil {
			c.Close()
			return fmt.Errorf("%s/%s: %w", s.workload, s.proto, err)
		}
		rep := racecheck.Check(c.TraceStreams(), racecheck.Options{
			PageGranularity: s.proto == core.EC || s.proto == core.ECDiff,
			ValueCheck:      !s.proto.ReleaseConsistent(),
		})
		c.Close()
		if rep.Truncated {
			return fmt.Errorf("%s/%s: trace ring overflowed", s.workload, s.proto)
		}
		ok := false
		switch s.want {
		case "clean":
			// Informational sharing pairs are legal in a clean run (SOR's
			// disjoint boundary rows cohabit pages between barriers).
			ok = rep.Clean()
		case "sharing":
			ok = rep.Clean() && rep.FalseShareCount > 0
		case "race":
			ok = rep.RaceCount > 0
		case "violation":
			ok = rep.ViolationCount > 0
		}
		verdict := s.want
		if !ok {
			verdict = "UNEXPECTED:want-" + s.want
		}
		t.AddRow(s.workload, s.proto.String(), s.broken, rep.Events, rep.Accesses,
			rep.RaceCount, rep.FalseShareCount, rep.ViolationCount, verdict)
		if !ok {
			fmt.Fprintln(w, t)
			return fmt.Errorf("%s/%s: verdict mismatch: want %s, got %d races, %d sharing, %d violations",
				s.workload, s.proto, s.want, rep.RaceCount, rep.FalseShareCount, rep.ViolationCount)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "The false-sharing kernel is data-race-free at byte granularity, so it is clean")
	fmt.Fprintln(w, "under the multiple-writer and write-invalidate protocols (sharing pairs are")
	fmt.Fprintln(w, "informational) but races under entry consistency, whose unit of consistency is")
	fmt.Fprintln(w, "the whole bound page. The seeded BreakCoherence bug — one skipped invalidation —")
	fmt.Fprintln(w, "is invisible to message counters and timelines but caught by the value check:")
	fmt.Fprintln(w, "a node keeps answering reads from a stale local copy after a newer write has")
	fmt.Fprintln(w, "causally reached it.")
	return nil
}

// E15Serving evaluates the DSM as a serving system rather than a
// batch machine: the kv store under a skewed, read-heavy, open-loop
// YCSB-style load, across one protocol from each consistency class,
// on the simulator and on real TCP loopback sockets, fault-free and
// under chaos. Reported per cell: the achieved throughput against
// the per-node open-loop target and the op-latency SLO quantiles
// (p50/p99/p999, measured from each op's *scheduled* arrival, so
// queueing delay behind a slow protocol is charged to the tail
// instead of silently dropped — no coordinated omission), plus the
// protocol message count behind that tail. Every row of one protocol
// must produce the same checksum: the final store image is a pure
// function of the deterministic per-node op streams, so neither the
// transport nor injected faults may change the answer.
func E15Serving(w io.Writer) error {
	header(w, "E15: kv serving — open-loop QPS and tail latency (3 nodes, read-heavy zipf 0.99)")
	params := kv.Params{
		Keys: 256, Ops: 400, QPS: 4000,
		Dist: loadgen.Zipfian, Theta: 0.99, Mix: loadgen.ReadHeavy, Seed: 15,
	}
	plan := simnet.FaultPlan{DropProb: 0.02, DupProb: 0.01, SpikeProb: 0.02, Spike: 2 * time.Millisecond}
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC, core.EC}
	t := stats.NewTable("protocol", "transport", "network", "achieved_qps", "op_p50_us", "op_p99_us", "op_p999_us", "late_ops", "proto_msgs", "checksum")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	type cell struct {
		lat     stats.LatSnapshot
		elapsed time.Duration
		msgs    int64
		sum     uint64
		late    int
	}
	addRow := func(proto core.Protocol, transportName, network string, c cell) {
		qps := float64(c.lat.Op.Count) / c.elapsed.Seconds()
		t.AddRow(proto.String(), transportName, network, qps,
			us(c.lat.Op.Quantile(0.5)), us(c.lat.Op.Quantile(0.99)), us(c.lat.Op.Quantile(0.999)),
			c.late, c.msgs, fmt.Sprintf("%016x", c.sum))
	}

	runSimCell := func(proto core.Protocol, faulty bool) (cell, error) {
		cfg := core.Config{
			Nodes:      3,
			Protocol:   proto,
			PageSize:   512,
			HeapBytes:  1 << 20,
			Seed:       15,
			EventTrace: true,
		}
		if faulty {
			f := plan
			cfg.Faults = &f
			cfg.Retry = &nodecore.RetryPolicy{AttemptTimeout: 10 * time.Millisecond, BackoffCap: 80 * time.Millisecond}
			cfg.WatchdogTimeout = 30 * time.Second
		}
		store := kv.New(params)
		c, err := core.NewCluster(cfg)
		if err != nil {
			return cell{}, err
		}
		defer c.Close()
		start := time.Now()
		if err := apps.RunAndVerify(c, store); err != nil {
			return cell{}, err
		}
		elapsed := time.Since(start)
		sum, err := store.Checksum(c.Node(0))
		if err != nil {
			return cell{}, err
		}
		st := c.TotalStats()
		if st.Lat == nil {
			return cell{}, fmt.Errorf("traced run carries no latency histograms")
		}
		late := 0
		for _, r := range store.Reports() {
			late += r.LateOps
		}
		return cell{lat: *st.Lat, elapsed: elapsed, msgs: st.MsgsSent, sum: sum, late: late}, nil
	}

	runTCPCell := func(proto core.Protocol) (cell, error) {
		cfg := core.Config{
			Nodes:       3,
			Protocol:    proto,
			PageSize:    512,
			Seed:        15,
			EventTrace:  true,
			CallTimeout: 30 * time.Second,
		}
		results, err := cluster.Loopback(cfg, func() apps.App { return kv.New(params) }, true)
		if err != nil {
			return cell{}, err
		}
		if !results[0].HasChecksum {
			return cell{}, fmt.Errorf("no checksum")
		}
		var out cell
		out.sum = results[0].Checksum
		lat := stats.LatSnapshot{}
		for _, r := range results {
			if r.Elapsed > out.elapsed {
				out.elapsed = r.Elapsed
			}
			out.msgs += r.Stats.MsgsSent
			if r.Stats.Lat == nil {
				return cell{}, fmt.Errorf("tcp node carries no latency histograms")
			}
			lat = lat.Add(*r.Stats.Lat)
		}
		out.late = -1 // per-node reports live in the node processes; -1 marks "not collected"
		out.lat = lat
		return out, nil
	}

	for _, proto := range protos {
		free, err := runSimCell(proto, false)
		if err != nil {
			return fmt.Errorf("%s/sim/fault-free: %w", proto, err)
		}
		addRow(proto, "sim", "fault-free", free)

		tcp, err := runTCPCell(proto)
		if err != nil {
			return fmt.Errorf("%s/tcp: %w", proto, err)
		}
		addRow(proto, "tcp", "fault-free", tcp)
		if tcp.sum != free.sum {
			return fmt.Errorf("%s: tcp checksum %016x differs from simulator %016x", proto, tcp.sum, free.sum)
		}

		chaos, err := runSimCell(proto, true)
		if err != nil {
			return fmt.Errorf("%s/sim/chaos: %w", proto, err)
		}
		addRow(proto, "sim", "chaos", chaos)
		if chaos.sum != free.sum {
			return fmt.Errorf("%s: chaos checksum %016x differs from fault-free %016x", proto, chaos.sum, free.sum)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "Checksums are constant down each protocol's three rows — and across protocols,")
	fmt.Fprintln(w, "since the final image is a replay of the same per-node op streams: neither the")
	fmt.Fprintln(w, "transport nor injected faults may change a serving result, only its tail. The")
	fmt.Fprintln(w, "open-loop schedule keeps arriving while the store stalls, so chaos rows pay their")
	fmt.Fprintln(w, "retransmission timeouts in op p99/p999 (queueing delay included) rather than in a")
	fmt.Fprintln(w, "flattered mean; late_ops counts arrivals that found the node already behind")
	fmt.Fprintln(w, "schedule (-1: not collected from tcp node processes).")
	return nil
}

// quiesce returns once the cluster's counters have stood still for a
// quiet interval longer than any delivery delay or retransmission gap
// the E16 cells configure (the chaos cell's BackoffCap is 80 ms), or
// after five seconds.
func quiesce(c *core.Cluster) {
	const quiet = 100 * time.Millisecond
	deadline := time.Now().Add(5 * time.Second)
	prev := c.TotalStats()
	for time.Now().Before(deadline) {
		time.Sleep(quiet)
		cur := c.TotalStats()
		prev.Lat, cur.Lat = nil, nil // counters only: Lat is a fresh pointer per snapshot
		if cur == prev {
			return
		}
		prev = cur
	}
}

// E16Metrics is the observation-only acceptance gate for the metrics
// pipeline: the kv serving workload runs with the sampler on — on the
// simulator (fault-free and under chaos) and on real TCP loopback —
// and every cell must (a) produce a checksum identical to its
// sampler-off baseline (sampling observes, never perturbs), (b)
// reconcile exactly: the windowed deltas telescope to the retained
// span and the final sample equals the final counters, and (c) emit a
// /metrics exposition that parses under the strict Prometheus
// text-format validator. A final cell induces a watchdog stall with
// the flight recorder armed and asserts the bundle renders with the
// stalled peer named — the evidence `dsmtrace -flight` would show.
func E16Metrics(w io.Writer) error {
	header(w, "E16: metrics pipeline — sampler transparency, rate reconciliation, exposition validity")
	params := kv.Params{
		Keys: 256, Ops: 300, QPS: 3000,
		Dist: loadgen.Zipfian, Theta: 0.99, Mix: loadgen.ReadHeavy, Seed: 16,
	}
	plan := simnet.FaultPlan{DropProb: 0.02, DupProb: 0.01, SpikeProb: 0.02, Spike: 2 * time.Millisecond}
	const proto = core.LRC
	t := stats.NewTable("cell", "sampler", "checksum", "samples", "ops_per_sec", "prom_families", "reconcile")

	simCell := func(faulty, sampled bool) (sum uint64, smp *metrics.Sampler, total stats.Snapshot, err error) {
		cfg := core.Config{
			Nodes: 3, Protocol: proto, PageSize: 512, HeapBytes: 1 << 20,
			Seed: 16, EventTrace: true,
		}
		if faulty {
			f := plan
			cfg.Faults = &f
			cfg.Retry = &nodecore.RetryPolicy{AttemptTimeout: 10 * time.Millisecond, BackoffCap: 80 * time.Millisecond}
			cfg.WatchdogTimeout = 30 * time.Second
		}
		store := kv.New(params)
		c, err := core.NewCluster(cfg)
		if err != nil {
			return 0, nil, stats.Snapshot{}, err
		}
		defer c.Close()
		if sampled {
			smp = metrics.Start(metrics.Config{
				Node: -1, Interval: 10 * time.Millisecond,
				Source:          c.TotalStats,
				TargetOpsPerSec: params.QPS * float64(cfg.Nodes),
			})
		}
		if err := apps.RunAndVerify(c, store); err != nil {
			return 0, nil, stats.Snapshot{}, err
		}
		if sum, err = store.Checksum(c.Node(0)); err != nil {
			return 0, nil, stats.Snapshot{}, err
		}
		if sampled {
			// lrc's one-way traffic (diff pushes, the acks after
			// Checksum's release) is still being received when the app
			// returns; the sampler's last sample and the final snapshot
			// must both be taken after it has landed.
			quiesce(c)
		}
		smp.Stop() // nil-safe; final sample at the quiesced counters
		return sum, smp, c.TotalStats(), nil
	}

	tcpCell := func(sampled bool) (sum uint64, samplers []*metrics.Sampler, finals []stats.Snapshot, err error) {
		cfg := core.Config{
			Nodes: 3, Protocol: proto, PageSize: 512,
			Seed: 16, EventTrace: true, CallTimeout: 30 * time.Second,
		}
		results, err := cluster.LoopbackWith(cfg,
			func() apps.App { return kv.New(params) }, true,
			func(o *cluster.NodeOpts) {
				o.Sample = sampled
				o.SampleInterval = 10 * time.Millisecond
				o.TargetOpsPerSec = params.QPS
			})
		if err != nil {
			return 0, nil, nil, err
		}
		if !results[0].HasChecksum {
			return 0, nil, nil, fmt.Errorf("no checksum")
		}
		for _, r := range results {
			samplers = append(samplers, r.Sampler)
			finals = append(finals, r.Stats)
		}
		return results[0].Checksum, samplers, finals, nil
	}

	// check runs the three acceptance assertions on one sampled cell
	// and renders its row.
	check := func(name string, sum, baseline uint64, smp *metrics.Sampler, final stats.Snapshot) error {
		if sum != baseline {
			return fmt.Errorf("%s: sampled checksum %016x differs from sampler-off %016x — sampling perturbed the run", name, sum, baseline)
		}
		if bad := smp.Reconcile(final); len(bad) != 0 {
			return fmt.Errorf("%s: sampler does not reconcile: %v", name, bad)
		}
		var buf strings.Builder
		if err := smp.WriteProm(&buf); err != nil {
			return err
		}
		samples, err := metrics.ParseExposition(strings.NewReader(buf.String()))
		if err != nil {
			return fmt.Errorf("%s: /metrics exposition invalid: %w", name, err)
		}
		win := smp.Window()
		t.AddRow(name, "on", fmt.Sprintf("%016x", sum), win.Samples, win.OpsPerSec, len(metrics.MetricNames(samples)), "ok")
		return nil
	}

	// Simulator, fault-free: sampler-off baseline, then sampled.
	base, _, _, err := simCell(false, false)
	if err != nil {
		return fmt.Errorf("sim/fault-free/off: %w", err)
	}
	t.AddRow("sim fault-free", "off", fmt.Sprintf("%016x", base), 0, "", "", "baseline")
	sum, smp, final, err := simCell(false, true)
	if err != nil {
		return fmt.Errorf("sim/fault-free/on: %w", err)
	}
	if err := check("sim fault-free", sum, base, smp, final); err != nil {
		return err
	}

	// Simulator, chaos: drops and duplicates sampled mid-flight.
	chaosBase, _, _, err := simCell(true, false)
	if err != nil {
		return fmt.Errorf("sim/chaos/off: %w", err)
	}
	if chaosBase != base {
		return fmt.Errorf("chaos baseline checksum %016x differs from fault-free %016x", chaosBase, base)
	}
	sum, smp, final, err = simCell(true, true)
	if err != nil {
		return fmt.Errorf("sim/chaos/on: %w", err)
	}
	if err := check("sim chaos", sum, chaosBase, smp, final); err != nil {
		return err
	}

	// TCP loopback: one sampler per node process-equivalent.
	tcpBase, _, _, err := tcpCell(false)
	if err != nil {
		return fmt.Errorf("tcp/off: %w", err)
	}
	if tcpBase != base {
		return fmt.Errorf("tcp baseline checksum %016x differs from simulator %016x", tcpBase, base)
	}
	sum, samplers, finals, err := tcpCell(true)
	if err != nil {
		return fmt.Errorf("tcp/on: %w", err)
	}
	for i, s := range samplers {
		if s == nil {
			return fmt.Errorf("tcp node %d: no sampler", i)
		}
		name := fmt.Sprintf("tcp node %d", i)
		if err := check(name, sum, tcpBase, s, finals[i]); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, t)

	// Stall cell: induce a watchdog fire with the recorder armed.
	dir, err := os.MkdirTemp("", "e16-flight")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rec *metrics.Recorder
	stallCfg := core.Config{
		Nodes: 2, EventTrace: true,
		WatchdogTimeout: 300 * time.Millisecond,
		OnStall:         func(report string) { rec.Dump(report) },
	}
	c, err := core.NewCluster(stallCfg)
	if err != nil {
		return err
	}
	defer c.Close()
	stallSmp := metrics.Start(metrics.Config{Node: -1, Interval: 20 * time.Millisecond, Source: c.TotalStats})
	defer stallSmp.Stop()
	rec = &metrics.Recorder{
		Dir: dir, Node: -1, Digest: stallCfg.Digest(),
		Meta:    map[string]string{"app": "e16-stall", "transport": "sim"},
		Sampler: stallSmp,
		Streams: c.TraceStreams,
	}
	runErr := c.Run(func(n *core.Node) error {
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
	if runErr == nil {
		return fmt.Errorf("stall cell: run did not stall")
	}
	b, err := metrics.LoadBundle(rec.Path())
	if err != nil {
		return fmt.Errorf("stall cell: no flight bundle: %w", err)
	}
	var report strings.Builder
	if err := metrics.WriteFlightReport(&report, b); err != nil {
		return err
	}
	if !strings.Contains(report.String(), "lock-req to 0") {
		return fmt.Errorf("flight report does not name the stalled peer:\n%s", report.String())
	}
	fmt.Fprintf(w, "flight recorder: watchdog stall captured %d samples + %d trace streams;\n", len(b.Samples), len(b.Traces))
	fmt.Fprintln(w, "the rendered report names the stalled call and its peer (\"lock-req to 0\"),")
	fmt.Fprintln(w, "exactly what `dsmtrace -flight BUNDLE` shows offline.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Checksums match their sampler-off baselines in every cell — the sampler is")
	fmt.Fprintln(w, "observation-only — and each sampler reconciles exactly: windowed deltas")
	fmt.Fprintln(w, "telescope to the retained span, and the final sample equals the final counters.")
	return nil
}

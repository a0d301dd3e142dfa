package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/racecheck"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sim runs one verified workload on a fresh simulator cluster.
func sim(cfg core.Config, app apps.App) (*cluster.Result, error) {
	return cluster.Run(cluster.Spec{Cfg: cfg, App: func() apps.App { return app }})
}

// kernel adapts a bare per-node function to apps.App, for cells that
// exercise a primitive rather than a workload; it has no result to
// verify.
type kernel struct {
	name  string
	setup func(c *core.Cluster) // may be nil
	run   func(n *core.Node) error
}

func (k kernel) Name() string { return k.name }
func (k kernel) Setup(c *core.Cluster) error {
	if k.setup != nil {
		k.setup(c)
	}
	return nil
}
func (k kernel) Run(n *core.Node) error   { return k.run(n) }
func (kernel) Verify(*core.Cluster) error { return nil }
func (kernel) LocksOnly() bool            { return false }

// unverified runs a workload whose Verify legitimately fails under
// the cell's protocol.
type unverified struct{ apps.App }

func (unverified) Verify(*core.Cluster) error { return nil }

// underChaos returns cfg on the lossy network E13, E15 and E16 share:
// 2% drops, 1% duplicates, 2% 2ms latency spikes, recovered by the
// simulator's links, with the watchdog armed.
func underChaos(cfg core.Config) core.Config {
	cfg.Faults = &simnet.FaultPlan{DropProb: 0.02, DupProb: 0.01, SpikeProb: 0.02, Spike: 2 * time.Millisecond}
	cfg.WatchdogTimeout = 30 * time.Second
	return cfg
}

// tracedCfg is the cell E13, E15 and E16 run: event tracing on (for
// the latency histograms), 512-byte pages, and under network "chaos"
// the lossy plan.
func tracedCfg(nodes int, proto core.Protocol, seed int64, network string) core.Config {
	cfg := core.Config{Nodes: nodes, Protocol: proto, PageSize: 512, Seed: seed, EventTrace: true}
	if network == "chaos" {
		cfg = underChaos(cfg)
	}
	return cfg
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

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
		{func() apps.App { return apps.NewTaskQueue(64, 600) }, 1024},
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
				res, err := sim(core.Config{
					Nodes:     n,
					Protocol:  proto,
					PageSize:  wl.page,
					HeapBytes: 1 << 22,
				}, app)
				if err != nil {
					return err
				}
				total := res.Total()

				if n == 1 {
					// Calibrate: single-node wall time is pure local
					// computation (all messages are loopback).
					acc := total.Reads + total.Writes
					if acc == 0 {
						acc = 1
					}
					accessCost = res.Elapsed / time.Duration(acc)
				}
				var worst time.Duration
				for _, s := range res.Nodes {
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

// col is one reported column of a sweep: its name and how to read it
// off a run.
type col struct {
	name string
	val  func(r *cluster.Result) any
}

// count is a column over the cluster-wide protocol counters.
func count(name string, f func(stats.Snapshot) int64) col {
	return col{name, func(r *cluster.Result) any { return f(r.Total()) }}
}

var (
	colTime   = col{"time_ms", func(r *cluster.Result) any { return ms(r.Elapsed) }}
	colFaults = count("faults", stats.Snapshot.Faults)
	colMsgs   = count("msgs", func(s stats.Snapshot) int64 { return s.MsgsSent })
	colKB     = col{"kbytes", func(r *cluster.Result) any { return float64(r.Total().BytesSent) / 1024 }}
)

// sweep is one apps × protocols (× page sizes) experiment: every cell
// runs one workload on a fresh simulator cluster built from cfg and
// reports the selected columns.
type sweep struct {
	header string
	// cfg is every cell's configuration; the cell fills in Protocol
	// and, when pages is set, PageSize.
	cfg    core.Config
	label  string // what the protocol column is called
	protos []core.Protocol
	suite  []func() apps.App // constructors: an instance holds one run's state
	pages  []int             // page sizes to sweep, adding a "page" column
	cols   []col
	perApp bool // one table per app rather than one for the sweep
	// chart, if set, titles a figure under each table: the last column
	// (a float64 one) against page size, one series per protocol.
	chart string
}

// The sweeps' workloads, sized so a cell takes milliseconds.
func sor() apps.App        { return apps.NewSOR(48, 32, 6) }       // mixed reads and writes
func matMul() apps.App     { return apps.NewMatMul(48) }           // read-heavy
func falseShare() apps.App { return apps.NewFalseShare(12, 32) }   // write-heavy
func taskQueue() apps.App  { return apps.NewTaskQueue(64, 300) }   // lock-migratory
func histogram() apps.App  { return apps.NewHistogram(1<<13, 32) } // lock-migratory
func tsp() apps.App        { return apps.NewTSP(8) }               // lock-migratory

var sweeps = map[string]sweep{
	// E3 compares Li & Hudak's four page-locating strategies on
	// identical workloads with a zero-latency network, counting the
	// protocol's intrinsic message costs. Expected shape: broadcast
	// floods requests; central and fixed run the improved manager, a
	// request to the manager and its forward to the owner, and central
	// forwards more (node 0 rarely owns the page, a page's home more
	// often does); dynamic pays occasional forwarding hops but no
	// manager detour.
	"e3": {
		header: "E3: manager algorithms (zero latency, message counts)",
		cfg:    core.Config{Nodes: 6, PageSize: 512, HeapBytes: 1 << 20},
		label:  "locator",
		protos: []core.Protocol{core.SCCentral, core.SCFixed, core.SCDynamic, core.SCBroadcast},
		suite:  []func() apps.App{sor, taskQueue},
		cols: []col{colFaults, colMsgs, colKB,
			count("forwards", func(s stats.Snapshot) int64 { return s.Forwards }),
			count("page_xfers", func(s stats.Snapshot) int64 { return s.PageTransfers })},
		perApp: true,
	},
	// E4 reproduces the Stumm & Zhou algorithm-class comparison:
	// central-server vs migration vs read-replication vs full-replication
	// across a read-heavy, a write-heavy, and a mixed workload. Expected
	// shape: central-server's message count tracks every access;
	// migration thrashes when two nodes interleave on one page;
	// read-replication wins read sharing; full-replication makes reads
	// free and writes globally expensive.
	"e4": {
		header: "E4: algorithm classes (message/byte costs)",
		cfg:    core.Config{Nodes: 5, PageSize: 512, HeapBytes: 1 << 20},
		label:  "class",
		protos: []core.Protocol{core.CentralServer, core.Migrate, core.SCFixed, core.FullReplication},
		suite:  []func() apps.App{matMul, falseShare, sor},
		cols: []col{colTime, colMsgs, colKB,
			count("remote_reads", func(s stats.Snapshot) int64 { return s.DirectReads }),
			count("remote_writes", func(s stats.Snapshot) int64 { return s.DirectWrites }),
			count("page_xfers", func(s stats.Snapshot) int64 { return s.PageTransfers })},
		perApp: true,
	},
	// E5 sweeps the page size for a boundary-sharing stencil and the
	// false-sharing microkernel. Expected shape: single-writer SC
	// degrades as pages grow (false sharing induces ping-ponging), while
	// the multiple-writer protocols stay flat in faults and only grow in
	// bytes.
	"e5": {
		header: "E5: page size and false sharing",
		cfg:    core.Config{Nodes: 5, HeapBytes: 1 << 21},
		label:  "protocol",
		protos: []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC},
		suite:  []func() apps.App{sor, falseShare},
		pages:  []int{128, 512, 2048},
		cols:   []col{colTime, colFaults, colMsgs, colKB},
		perApp: true,
		chart:  "figure: traffic vs page size",
	},
	// E6 compares eager-RC propagation flavors against SC. Expected
	// shape: update propagation trades bytes for faults — consumers
	// never refetch (few faults, more update traffic); invalidation
	// refetches whole pages on demand.
	"e6": {
		header: "E6: invalidate vs update propagation",
		cfg:    core.Config{Nodes: 5, PageSize: 512, HeapBytes: 1 << 20},
		label:  "protocol",
		protos: []core.Protocol{core.SCFixed, core.ERCInvalidate, core.ERCUpdate},
		suite:  []func() apps.App{sor, falseShare, histogram},
		cols: []col{colFaults, colMsgs, colKB,
			count("invalidations", func(s stats.Snapshot) int64 { return s.Invalidations }),
			count("updates", func(s stats.Snapshot) int64 { return s.UpdatesApplied })},
		perApp: true,
	},
	// E7 reproduces the eager-vs-lazy RC comparison, extended with
	// home-based LRC: eager RC propagates everything at release;
	// homeless LRC moves consistency information on sync edges and data
	// only on demand; HLRC flushes diffs to homes at release but
	// validates with one page fetch. Expected shape: LRC sends the
	// fewest messages and bytes; HLRC sits between (flush traffic at
	// release, whole pages on faults, but no diff retention); eager RC
	// pays the most.
	"e7": {
		header: "E7: eager vs lazy vs home-based release consistency",
		cfg:    core.Config{Nodes: 5, PageSize: 512, HeapBytes: 1 << 20},
		label:  "protocol",
		protos: []core.Protocol{core.ERCInvalidate, core.HLRC, core.LRC},
		suite:  []func() apps.App{sor, falseShare, taskQueue, histogram},
		cols: []col{colTime, colMsgs, colKB, colFaults,
			count("diffs", func(s stats.Snapshot) int64 { return s.DiffsCreated }),
			count("diff_fetches", func(s stats.Snapshot) int64 { return s.DiffFetches }),
			count("notices", func(s stats.Snapshot) int64 { return s.WriteNotices })},
	},
	// E8 reproduces Midway's claim: binding data to locks makes a
	// contended handoff a single message carrying both permission and
	// data. Expected shape: EC has the lowest message count on
	// lock-migratory workloads; its grant-payload bytes replace the
	// faults and page transfers the paged protocols pay.
	"e8": {
		header: "E8: entry consistency vs paged protocols (lock-only apps)",
		cfg:    core.Config{Nodes: 5, PageSize: 512, HeapBytes: 1 << 20},
		label:  "protocol",
		protos: []core.Protocol{core.SCFixed, core.LRC, core.EC, core.ECDiff},
		suite:  []func() apps.App{taskQueue, tsp, histogram},
		cols: []col{colTime, colMsgs, colKB, colFaults,
			{"grant_kb", func(r *cluster.Result) any { return float64(r.Total().GrantPayloadBytes) / 1024 }},
			count("locks", func(s stats.Snapshot) int64 { return s.LockAcquires })},
	},
}

func (s sweep) run(w io.Writer) error {
	header(w, s.header)
	names := []string{"app", s.label}
	pages := s.pages
	if pages != nil {
		names = append(names, "page")
	} else {
		pages = []int{s.cfg.PageSize}
	}
	for _, c := range s.cols {
		names = append(names, c.name)
	}
	var t *stats.Table
	var chart *stats.Chart
	flush := func() {
		fmt.Fprintln(w, t)
		if chart != nil {
			fmt.Fprintln(w, chart)
		}
		t, chart = nil, nil
	}
	for _, mk := range s.suite {
		if t == nil {
			t = stats.NewTable(names...)
		}
		for _, proto := range s.protos {
			for _, ps := range pages {
				app := mk()
				cfg := s.cfg
				cfg.Protocol, cfg.PageSize = proto, ps
				res, err := sim(cfg, app)
				if err != nil {
					return err
				}
				row := []any{app.Name(), proto.String()}
				if s.pages != nil {
					row = append(row, ps)
				}
				for _, c := range s.cols {
					row = append(row, c.val(res))
				}
				t.AddRow(row...)
				if s.chart != "" {
					if chart == nil {
						chart = stats.NewChart(s.chart+" — "+app.Name(), "page_B", names[len(names)-1])
					}
					chart.Add(proto.String(), float64(ps), row[len(row)-1].(float64))
				}
			}
		}
		if s.perApp {
			flush()
		}
	}
	if t != nil {
		flush()
	}
	return nil
}

// E9Sync measures the synchronization service itself: lock acquires
// re-taking a cached token, uncontended first acquires and contended
// hand-offs, and barrier cost centralized versus tree. Expected shape:
// a re-acquire where the token is costs nothing; an uncontended first
// acquire is one round trip to the manager; a contended hand-off adds
// the manager's forward to the token's owner. For
// barriers the scalability argument is hub load: the centralized
// barrier funnels 2N messages per episode through one endpoint
// (hub_msgs grows linearly with N), while the tree bounds every
// endpoint at ~2(fanout+1) regardless of N — that bounded hub load
// is why combining trees win on real networks whose endpoints
// serialize message processing. (Wall time in this in-process
// simulator favours fewer hops, i.e. the centralized barrier; the
// simulator does not model endpoint serialization, so hub load is read
// from the message counts.)
func E9Sync(w io.Writer) error {
	header(w, "E9: lock and barrier service")
	t := stats.NewTable("benchmark", "nodes", "ops", "total_ms", "us_per_op", "msgs", "hub_msgs_per_op", "local_grants")
	// bench runs one kernel on a fresh cluster and adds its row; ops is
	// the operation count the per-op columns divide by.
	bench := func(name string, cfg core.Config, ops int, run func(n *core.Node) error) error {
		res, err := sim(cfg, kernel{name: name, run: run})
		if err != nil {
			return err
		}
		hub := int64(0)
		for _, s := range res.Nodes {
			if s.MsgsRecv > hub {
				hub = s.MsgsRecv
			}
		}
		t.AddRow(name, cfg.Nodes, ops, ms(res.Elapsed),
			float64(res.Elapsed.Microseconds())/float64(ops), res.Total().MsgsSent,
			float64(hub)/float64(ops), res.Total().LockLocalGrants)
		return nil
	}
	// lockBench: "reacquire" takes one private lock per node over and
	// over (its token stays put after the first acquire), "uncontended"
	// a fresh lock per acquire (one round trip to its manager unless
	// the node manages it), "contended" one lock on every node.
	lockBench := func(nodes, perNode int, kind string) error {
		cfg := core.Config{Nodes: nodes, PageSize: 256, HeapBytes: 1 << 16, Protocol: core.SCFixed}
		return bench("lock-"+kind, cfg, nodes*perNode, func(n *core.Node) error {
			for i := 0; i < perNode; i++ {
				lock := int32(1)
				switch kind {
				case "reacquire":
					lock = int32(10 + n.ID())
				case "uncontended":
					lock = int32(100 + n.ID()*perNode + i)
				}
				if err := n.Acquire(lock); err != nil {
					return err
				}
				if err := n.Release(lock); err != nil {
					return err
				}
			}
			return nil
		})
	}
	barBench := func(nodes, rounds int, tree bool) error {
		name := "barrier-central"
		if tree {
			name = "barrier-tree-f4"
		}
		cfg := core.Config{
			Nodes: nodes, PageSize: 256, HeapBytes: 1 << 16,
			Protocol: core.SCFixed, TreeBarrier: tree, TreeFanout: 4,
		}
		return bench(name, cfg, rounds, func(n *core.Node) error {
			for i := 0; i < rounds; i++ {
				if err := n.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, nodes := range []int{4, 16} {
		for _, kind := range []string{"reacquire", "uncontended", "contended"} {
			if err := lockBench(nodes, 200, kind); err != nil {
				return err
			}
		}
	}
	for _, nodes := range []int{16, 48} {
		for _, tree := range []bool{false, true} {
			if err := barBench(nodes, 100, tree); err != nil {
				return err
			}
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
// so is the protocol: TCP cannot lose a frame without failing a node,
// so a TCP node runs the simulator's fault-free protocol, and the TCP
// rows differ only by the two shutdown barriers that keep processes
// alive through verification, 2 x 2(N-1) = 8 messages at N = 3.
// Messages and bytes are the nodes' summed counters, which each
// transport bumps at send and delivery: one ledger, so one column each.
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
	cfg := core.Config{Nodes: 3, Protocol: core.LRC}
	t := stats.NewTable("app", "transport", "elapsed_ms", "msgs", "bytes", "checksum")
	for _, wl := range workloads {
		var simSum uint64
		for _, tr := range []string{"sim", "tcp"} {
			res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: wl.mk, TCP: tr == "tcp"})
			if err != nil {
				return fmt.Errorf("%s over %s: %w", wl.name, tr, err)
			}
			st := res.Total()
			t.AddRow(wl.name, tr, ms(res.Elapsed), st.MsgsSent, st.BytesSent, fmt.Sprintf("%016x", res.Checksum))
			if tr == "sim" {
				simSum = res.Checksum
			} else if res.Checksum != simSum {
				return fmt.Errorf("%s: tcp result %016x differs from simulator %016x", wl.name, res.Checksum, simSum)
			}
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "checksums match per app: the protocols are transport-independent. So is the traffic: a tcp")
	fmt.Fprintln(w, "row is the simulator's plus the two shutdown barriers that keep node processes alive through")
	fmt.Fprintln(w, "verification (8 messages); taskqueue's lock hand-offs depend on the schedule on either one.")
	return nil
}

// E12Batching measures the message-batching layer: with
// core.Config.Batch on, one-way messages share transport frames with
// other traffic to the same destination, same-destination request
// groups (HLRC/ERC home flushes) travel as one KBatch frame, and
// homeless LRC's barrier arrivals and releases carry interval diffs to
// the readers that fetched them before, turning most diff
// request/reply round trips into no message at all. Expected shape: SOR+lrc drops well over 30% of its
// transport messages (the diff round trips dominate its traffic);
// hlrc and erc-invalidate save by merging their per-page release
// flushes. The TCP loopback rows show the same batched protocol on
// real sockets producing checksums identical to the simulator —
// batching changes framing, never results.
func E12Batching(w io.Writer) error {
	header(w, "E12: message batching, diff pushes, and piggybacking")
	mk := func() apps.App { return apps.NewSOR(48, 32, 6) }
	t := stats.NewTable("app", "protocol", "batch", "transport", "elapsed_ms", "msgs", "kbytes", "batched", "frames", "pushes", "checksum")
	row := func(name, tr string, cfg core.Config, res *cluster.Result) {
		st := res.Total()
		t.AddRow(name, cfg.Protocol.String(), onOff(cfg.Batch), tr, ms(res.Elapsed), st.MsgsSent,
			float64(st.BytesSent)/1024, st.BatchedMsgs, st.FlushedBatches, st.DiffPushes,
			fmt.Sprintf("%016x", res.Checksum))
	}
	var lrcMsgs [2]int64 // batching off, on
	for _, proto := range []core.Protocol{core.LRC, core.HLRC, core.ERCInvalidate} {
		for i, batch := range []bool{false, true} {
			cfg := core.Config{
				Nodes:     5,
				PageSize:  512,
				HeapBytes: 1 << 20,
				Protocol:  proto,
				Batch:     batch,
			}
			app := mk()
			res, err := sim(cfg, app)
			if err != nil {
				return err
			}
			row(app.Name(), "sim", cfg, res)
			if proto == core.LRC {
				lrcMsgs[i] = res.Total().MsgsSent
			}
		}
	}

	// The same batched protocol over real TCP sockets (3-process-shaped
	// loopback cluster, smaller grid as in E11): identical results.
	tcpMk := func() apps.App { return apps.NewSOR(24, 16, 6) }
	var simSums [2]uint64 // batching off, on
	for i, batch := range []bool{false, true} {
		cfg := core.Config{Nodes: 3, Protocol: core.LRC, Batch: batch}
		simRes, err := cluster.Run(cluster.Spec{Cfg: cfg, App: tcpMk})
		if err != nil {
			return err
		}
		simSums[i] = simRes.Checksum
		res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: tcpMk, TCP: true})
		if err != nil {
			return fmt.Errorf("sor over tcp (batch=%v): %w", batch, err)
		}
		if res.Checksum != simRes.Checksum {
			return fmt.Errorf("sor over tcp (batch=%v): tcp result %016x differs from simulator %016x",
				batch, res.Checksum, simRes.Checksum)
		}
		row("sor-24", "tcp", cfg, res)
	}
	if simSums[0] != simSums[1] {
		return fmt.Errorf("batching changed the simulator result: %016x vs %016x", simSums[0], simSums[1])
	}
	fmt.Fprintln(w, t)
	lrcOff, lrcOn := lrcMsgs[0], lrcMsgs[1]
	reduction := 100 * (1 - float64(lrcOn)/float64(lrcOff))
	fmt.Fprintf(w, "sor+lrc on the simulator: %d -> %d transport messages with batching on (%.1f%% fewer).\n", lrcOff, lrcOn, reduction)
	fmt.Fprintln(w, "Diff pushes replace fetch round trips once interest is known; checksums are identical in")
	fmt.Fprintln(w, "every row — batching and pushing change framing and timing, never results.")
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
	t := stats.NewTable("protocol", "network", "class", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us")
	var notes []string
	for _, proto := range []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC} {
		for _, network := range []string{"fault-free", "chaos"} {
			res, err := sim(tracedCfg(4, proto, 7, network), apps.NewSOR(32, 24, 4))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", proto, network, err)
			}
			merged := trace.Merge(res.Traces)
			if err := trace.CheckCausal(merged); err != nil {
				return fmt.Errorf("%s/%s: merged trace violates causality: %w", proto, network, err)
			}
			st := res.Total()
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
				proto, network, len(merged), len(res.Traces)))
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
	// Barrier-separated single-writer rounds: coherent under any
	// correct SC engine, so every finding is the seeded bug.
	var x int64
	singleWriter := kernel{
		name:  "single-writer",
		setup: func(c *core.Cluster) { x = c.MustAlloc(8) },
		run: func(n *core.Node) error {
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
		},
	}
	type spec struct {
		workload string
		proto    core.Protocol
		app      apps.App
		broken   bool
		want     string // clean | sharing | race | violation
	}
	specs := []spec{
		{"sor", core.SCFixed, apps.NewSOR(24, 16, 4), false, "clean"},
		{"sor", core.LRC, apps.NewSOR(24, 16, 4), false, "clean"},
		{"falseshare", core.SCFixed, apps.NewFalseShare(8, 4), false, "sharing"},
		{"falseshare", core.LRC, apps.NewFalseShare(8, 4), false, "sharing"},
		// Verify legitimately fails under EC, where barriers carry no
		// coherence for unbound data.
		{"falseshare", core.EC, unverified{apps.NewFalseShare(8, 4)}, false, "race"},
		{"single-writer", core.SCFixed, singleWriter, true, "violation"},
	}
	for _, s := range specs {
		res, err := sim(core.Config{
			Nodes:          3,
			Protocol:       s.proto,
			PageSize:       256,
			HeapBytes:      1 << 20,
			AccessTrace:    true,
			TraceCapacity:  1 << 17,
			BreakCoherence: s.broken,
		}, s.app)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", s.workload, s.proto, err)
		}
		rep := racecheck.Check(res.Traces, racecheck.Options{
			PageGranularity: s.proto == core.EC || s.proto == core.ECDiff,
			ValueCheck:      !s.proto.ReleaseConsistent(),
		})
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
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC, core.EC}
	t := stats.NewTable("protocol", "transport", "network", "achieved_qps", "op_p50_us", "op_p99_us", "op_p999_us", "late_ops", "proto_msgs", "checksum")

	// cell runs the store once, adds its row and returns its checksum.
	cell := func(proto core.Protocol, transport, network string) (uint64, error) {
		var store *kv.Store // the simulator's one instance
		res, err := cluster.Run(cluster.Spec{Cfg: tracedCfg(3, proto, 15, network), TCP: transport == "tcp", App: func() apps.App {
			store = kv.New(params)
			return store
		}})
		if err != nil {
			return 0, fmt.Errorf("%s/%s/%s: %w", proto, transport, network, err)
		}
		st := res.Total()
		if st.Lat == nil {
			return 0, fmt.Errorf("%s/%s/%s: traced run carries no latency histograms", proto, transport, network)
		}
		late := -1 // over tcp every node has its own instance; -1 marks "not collected"
		if transport == "sim" {
			late = 0
			for _, r := range store.Reports() {
				late += r.LateOps
			}
		}
		op := st.Lat.Op
		t.AddRow(proto.String(), transport, network, float64(op.Count)/res.Elapsed.Seconds(),
			us(op.Quantile(0.5)), us(op.Quantile(0.99)), us(op.Quantile(0.999)),
			late, st.MsgsSent, fmt.Sprintf("%016x", res.Checksum))
		return res.Checksum, nil
	}

	for _, proto := range protos {
		var free uint64 // sim/fault-free: the other two cells must reproduce it
		for i, c := range [][2]string{{"sim", "fault-free"}, {"tcp", "fault-free"}, {"sim", "chaos"}} {
			sum, err := cell(proto, c[0], c[1])
			if err != nil {
				return err
			}
			if i == 0 {
				free = sum
			} else if sum != free {
				return fmt.Errorf("%s: %s/%s checksum %016x differs from sim/fault-free %016x", proto, c[0], c[1], sum, free)
			}
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
	const proto = core.LRC
	t := stats.NewTable("cell", "sampler", "checksum", "samples", "ops_per_sec", "prom_families", "reconcile")

	// cell runs the workload once; a sampled run returns its samplers
	// stopped at the quiesced counters.
	cell := func(transport, network string, sampled bool) (*cluster.Result, error) {
		res, err := cluster.Run(cluster.Spec{
			Cfg: tracedCfg(3, proto, 16, network), TCP: transport == "tcp",
			App:     func() apps.App { return kv.New(params) },
			Observe: cluster.Observe{Sample: sampled, SampleInterval: 10 * time.Millisecond, TargetOpsPerSec: params.QPS},
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", transport, network, onOff(sampled), err)
		}
		return res, nil
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

	// Per cell: the sampler-off baseline (which must reproduce the first
	// cell's checksum), then the sampled run, checked against it.
	var base uint64
	for i, c := range []struct{ transport, network string }{
		{"sim", "fault-free"},
		{"sim", "chaos"}, // drops and duplicates sampled mid-flight
		{"tcp", "fault-free"},
	} {
		name := c.transport + " " + c.network
		off, err := cell(c.transport, c.network, false)
		if err != nil {
			return err
		}
		if i == 0 {
			base = off.Checksum
			t.AddRow(name, "off", fmt.Sprintf("%016x", base), 0, "", "", "baseline")
		} else if off.Checksum != base {
			return fmt.Errorf("%s baseline checksum %016x differs from sim fault-free %016x", name, off.Checksum, base)
		}
		on, err := cell(c.transport, c.network, true)
		if err != nil {
			return err
		}
		// One whole-cluster sampler on the simulator, one per node over tcp.
		finals := []stats.Snapshot{on.Total()}
		if c.transport == "tcp" {
			finals = on.Nodes
		}
		if len(on.Samplers) != len(finals) {
			return fmt.Errorf("%s: %d samplers, want %d", name, len(on.Samplers), len(finals))
		}
		for k, smp := range on.Samplers {
			if c.transport == "tcp" {
				name = fmt.Sprintf("tcp node %d", k)
			}
			if err := check(name, on.Checksum, off.Checksum, smp, finals[k]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w, t)

	// Stall cell: induce a watchdog fire with the recorder armed.
	dir, err := os.MkdirTemp("", "e16-flight")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, runErr := cluster.Run(cluster.Spec{
		Cfg: core.Config{Nodes: 2, EventTrace: true, WatchdogTimeout: 300 * time.Millisecond},
		App: func() apps.App {
			return kernel{name: "e16-stall", run: func(n *core.Node) error {
				if n.ID() == 0 {
					if err := n.Acquire(2); err != nil {
						return err
					}
					<-n.Runtime().Done()
					return nil
				}
				time.Sleep(50 * time.Millisecond)
				return n.Acquire(2)
			}}
		},
		Observe: cluster.Observe{Sample: true, SampleInterval: 20 * time.Millisecond, FlightDir: dir},
	})
	if runErr == nil {
		return fmt.Errorf("stall cell: run did not stall")
	}
	bundles, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(bundles) != 1 {
		return fmt.Errorf("stall cell: %d flight bundles in %s after: %v", len(bundles), dir, runErr)
	}
	b, err := metrics.LoadBundle(bundles[0])
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

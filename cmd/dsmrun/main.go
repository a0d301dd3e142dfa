// dsmrun executes one DSM workload under one protocol and dumps the
// per-node protocol counters — the quickest way to see how a
// protocol behaves on a workload.
//
// Usage:
//
//	dsmrun -app sor -proto lrc -nodes 8 -page 1024
//	dsmrun -app sor -proto sc-fixed -chaos       # under fault injection
//	dsmrun -app kvstore -qps 2000 -mix read-heavy -zipf 0.99   # serving workload with SLO report
//	dsmrun -app sor -trace out.json              # Chrome/Perfetto trace
//	dsmrun -app sor -stats json                  # machine-readable output
//	dsmrun -transport tcp -nodes 3 -app sor      # multi-process demo
//	dsmrun -transport tcp -node 1 -peers h0:p0,h1:p1,h2:p2 -app sor
//	dsmrun -transport tcp -nodes 3 -app sor -debug-addr 127.0.0.1:0
//	dsmrun -app kvstore -qps 2000 -sample                 # metrics sampler + windowed summary
//	dsmrun -transport tcp -nodes 3 -app kvstore -watch    # live per-node dashboard over the demo
//	dsmrun -watch 127.0.0.1:7070 127.0.0.1:7071          # full-screen dashboard over running nodes' debug endpoints
//	dsmrun -app sor -chaos -flight-dir /tmp/flight        # stall evidence bundles (dsmtrace -flight)
//	dsmrun -list
//
// -trace writes a Chrome trace-event file loadable in Perfetto
// (ui.perfetto.dev) with one track per node and flow arrows pairing
// each RPC send with its receive. Under -transport tcp each process
// writes its own FILE.node<id>. -debug-addr (tcp only) serves /stats,
// /trace, /histograms, and /debug/pprof/ per node while the run is
// live; with the loopback demo use a :0 port so every child can bind.
//
// With -transport tcp each DSM node is its own OS process talking
// over real sockets. Give every process the same -app/-proto/-page
// flags and the full -peers list (its own address included, in node
// id order), and its node id via -node. Omitting -node (or passing
// -1) makes dsmrun spawn the whole cluster itself on loopback — the
// one-command demo.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func protocols() map[string]core.Protocol {
	m := make(map[string]core.Protocol)
	for _, p := range core.Protocols() {
		m[p.String()] = p
	}
	return m
}

func workloads(scale apps.Scale) map[string]apps.App {
	m := make(map[string]apps.App)
	for _, a := range apps.All(scale) {
		key := a.Name()
		if i := strings.IndexByte(key, '-'); i > 0 {
			key = key[:i]
		}
		m[key] = a
	}
	return m
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmrun: "+format+"\n", args...)
	os.Exit(1)
}

// options holds the parsed command line.
type options struct {
	app, proto       string
	nodes, page      int
	latency, perByte time.Duration
	advise, medium   bool
	chaos            bool
	seed             int64
	transport        string
	node             int
	peers            string
	listenFD         uint
	traceFile        string
	statsFmt         string
	debugAddr        string
	flightDir        string
	sample, watch    bool
	slo              time.Duration
	qps              float64
	mix              string
	zipf             float64
	keys, ops        int
	list             bool
}

// validate rejects flag combinations that would otherwise be ignored
// silently: each transport's knobs are refused on the other.
func (o *options) validate() error {
	if o.statsFmt != "table" && o.statsFmt != "json" {
		return fmt.Errorf("-stats must be table or json, got %q", o.statsFmt)
	}
	switch o.transport {
	case "sim":
		if o.debugAddr != "" {
			return fmt.Errorf("-debug-addr is for -transport tcp; the simulator exposes everything in-process")
		}
	case "tcp":
		if o.chaos {
			return fmt.Errorf("-chaos is simulator-only (a real network brings its own faults)")
		}
		if o.latency != 0 || o.perByte != 0 {
			return fmt.Errorf("-latency/-perbyte model the simulator; the real network has real latency")
		}
		if o.advise {
			return fmt.Errorf("-advise is simulator-only (each tcp process would classify only its own node's accesses)")
		}
	default:
		return fmt.Errorf("unknown transport %q (sim or tcp)", o.transport)
	}
	return nil
}

// observe maps the observability flags onto the run's observers.
func (o *options) observe() cluster.Observe {
	return cluster.Observe{
		Sample:          o.sample || o.watch,
		TargetOpsPerSec: o.qps,
		SLOTarget:       o.slo,
		FlightDir:       o.flightDir,
	}
}

func main() {
	var o options
	flag.StringVar(&o.app, "app", "sor", "workload (see -list)")
	flag.StringVar(&o.proto, "proto", "lrc", "protocol (see -list)")
	flag.IntVar(&o.nodes, "nodes", 4, "cluster size")
	flag.IntVar(&o.page, "page", 1024, "page size in bytes")
	flag.DurationVar(&o.latency, "latency", 0, "per-message network latency (simulator only)")
	flag.DurationVar(&o.perByte, "perbyte", 0, "per-byte network cost (simulator only)")
	flag.BoolVar(&o.advise, "advise", false, "classify per-page sharing patterns (Munin-style; simulator only)")
	flag.BoolVar(&o.medium, "medium", false, "use benchmark-scale workload sizes")
	flag.BoolVar(&o.chaos, "chaos", false, "inject network faults (drops, duplicates, partitions, stalls; simulator only)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for jitter and fault injection")
	flag.StringVar(&o.transport, "transport", "sim", "message transport: sim (in-process simulator) or tcp (one OS process per node)")
	flag.IntVar(&o.node, "node", -1, "with -transport tcp: this process's node id; -1 spawns the whole cluster on loopback")
	flag.StringVar(&o.peers, "peers", "", "with -transport tcp: comma-separated host:port of every node, in id order")
	flag.UintVar(&o.listenFD, "listen-fd", 0, "inherited listener file descriptor (set by the loopback demo for its children)")
	flag.StringVar(&o.traceFile, "trace", "", "write a Chrome trace-event JSON file (enables event tracing; tcp nodes write FILE.node<id>)")
	flag.StringVar(&o.statsFmt, "stats", "table", "stats output format: table or json")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "with -transport tcp: serve the HTTP debug endpoint (stats, trace, histograms, pprof) on this address")
	flag.BoolVar(&o.sample, "sample", false, "run the metrics sampler (time-series ring; adds /metrics and /metrics.json to the debug endpoint)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "arm the flight recorder: dump a JSON bundle (samples, trace window, goroutines) here on a watchdog stall or abnormal exit")
	flag.BoolVar(&o.watch, "watch", false, "render a refreshing per-node metrics dashboard during the run (implies -sample); with host:port arguments, watch those debug endpoints full-screen and run nothing")
	flag.DurationVar(&o.slo, "slo", 10*time.Millisecond, "op-latency SLO target for the attainment gauge")
	flag.Float64Var(&o.qps, "qps", 0, "with -app kvstore: per-node open-loop target rate (0 = unpaced closed loop)")
	flag.StringVar(&o.mix, "mix", "", "with -app kvstore: op profile (read-heavy | write-heavy | mixed)")
	flag.Float64Var(&o.zipf, "zipf", -1, "with -app kvstore: Zipfian skew theta in (0,1); 0 selects the uniform distribution")
	flag.IntVar(&o.keys, "keys", 0, "with -app kvstore: key-space size (power of two; 0 = scale default)")
	flag.IntVar(&o.ops, "ops", 0, "with -app kvstore: per-node operation count (0 = scale default)")
	flag.BoolVar(&o.list, "list", false, "list workloads and protocols")
	flag.Parse()

	if o.watch && flag.NArg() > 0 {
		// Attach to a running cluster's debug endpoints; a node that
		// stops answering renders as an error row.
		if err := metrics.Watch(os.Stdout, flag.Args(), metrics.WatchOpts{ClearScreen: true}); err != nil {
			fatal("%v", err)
		}
		return
	}
	if err := o.validate(); err != nil {
		fatal("%v", err)
	}

	scale := apps.Small
	if o.medium {
		scale = apps.Medium
	}
	if o.list {
		fmt.Print("workloads: ")
		for name := range workloads(scale) {
			fmt.Printf("%s ", name)
		}
		fmt.Print("\nprotocols: ")
		for name := range protocols() {
			fmt.Printf("%s ", name)
		}
		fmt.Println("\ntransports: sim tcp")
		return
	}
	app, ok := workloads(scale)[o.app]
	if !ok {
		fatal("unknown app %q (try -list)", o.app)
	}
	if o.app == "kvstore" {
		app = kvFromFlags(scale, o.seed, o.qps, o.mix, o.zipf, o.keys, o.ops)
	} else {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "qps", "mix", "zipf", "keys", "ops":
				fatal("-%s is only meaningful with -app kvstore", f.Name)
			}
		})
	}
	proto, ok := protocols()[o.proto]
	if !ok {
		fatal("unknown protocol %q (try -list)", o.proto)
	}
	if (proto == core.EC || proto == core.ECDiff) && !app.LocksOnly() {
		fatal("%s is not lock-only; entry consistency requires bound data", app.Name())
	}

	// What every run mode builds its cluster from. The serving workload
	// always records op latencies: SLO quantiles are its whole point;
	// the sampler wants them too.
	cfg := core.Config{
		Nodes:      o.nodes,
		Protocol:   proto,
		PageSize:   o.page,
		HeapBytes:  1 << 22,
		Seed:       o.seed,
		EventTrace: o.traceFile != "" || o.app == "kvstore" || o.sample || o.watch,
	}
	switch {
	case o.transport == "sim":
		runSim(&o, cfg, app)
	case o.node >= 0:
		runTCPNode(&o, cfg, app)
	default:
		runTCPDemo(&o)
	}
}

// kvFromFlags builds the kvstore app from the serving flags, starting
// from the scale's defaults.
func kvFromFlags(scale apps.Scale, seed int64, qps float64, mixName string, zipf float64, keys, ops int) *kv.Store {
	base := kv.NewSmall()
	if scale == apps.Medium {
		base = kv.NewMedium()
	}
	p := base.Params()
	p.Seed = seed
	p.QPS = qps
	if mixName != "" {
		mix, err := loadgen.MixByName(mixName)
		if err != nil {
			fatal("%v", err)
		}
		p.Mix = mix
	}
	switch {
	case zipf == 0:
		p.Dist, p.Theta = loadgen.Uniform, 0
	case zipf > 0:
		p.Dist, p.Theta = loadgen.Zipfian, zipf
	}
	if keys != 0 {
		p.Keys = keys
	}
	if ops != 0 {
		p.Ops = ops
	}
	return kv.New(p)
}

// servingReport renders, when the app is the kvstore, its per-node
// open-loop summaries: achieved rate against the target, and the
// backlog/late-op evidence of whether the node kept up with the
// schedule.
func servingReport(w io.Writer, app apps.App) {
	kvs, ok := app.(*kv.Store)
	if !ok {
		return
	}
	reports := kvs.Reports()
	if len(reports) == 0 {
		return
	}
	t := stats.NewTable("node", "ops", "gets", "puts", "dels", "target_qps", "achieved_qps", "max_backlog", "late_ops")
	for _, r := range reports {
		t.AddRow(r.Node, r.Ops, r.Gets, r.Puts, r.Dels, r.TargetQPS, r.AchievedQPS, r.MaxBacklog, r.LateOps)
	}
	fmt.Fprintf(w, "\nserving report (open-loop; op latencies incl. queueing delay are the \"op\" histogram class):\n%s", t.String())
}

// nodeJSON is one node's machine-readable stats entry.
type nodeJSON struct {
	Node       int                      `json:"node"`
	Counters   map[string]int64         `json:"counters"`
	Histograms []trace.HistogramSummary `json:"histograms,omitempty"`
}

// reportJSON is the -stats json document.
type reportJSON struct {
	App       string     `json:"app"`
	Protocol  string     `json:"protocol"`
	Nodes     int        `json:"nodes"`
	Page      int        `json:"page"`
	ElapsedMs float64    `json:"elapsed_ms"`
	Verify    string     `json:"verify"`
	PerNode   []nodeJSON `json:"per_node"`
	Total     nodeJSON   `json:"total"`
}

func nodeEntry(id int, s stats.Snapshot) nodeJSON {
	n := nodeJSON{Node: id, Counters: s.Map()}
	if s.Lat != nil {
		n.Histograms = trace.HistogramSummaries(*s.Lat)
	}
	return n
}

func printJSON(w io.Writer, app apps.App, cfg core.Config, elapsed time.Duration, verdict string, snaps []stats.Snapshot, firstNode int) error {
	rep := reportJSON{
		App:       app.Name(),
		Protocol:  cfg.Protocol.String(),
		Nodes:     cfg.Nodes,
		Page:      cfg.PageSize,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Verify:    verdict,
		Total:     nodeEntry(-1, stats.Sum(snaps)),
	}
	for i, s := range snaps {
		rep.PerNode = append(rep.PerNode, nodeEntry(firstNode+i, s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeChromeFile dumps the streams as a Chrome trace-event file.
func writeChromeFile(path string, streams []trace.Stream) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := trace.WriteChrome(f, streams); err != nil {
		f.Close()
		fatal("write trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatal("write trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dsmrun: wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", path)
}

// runSim is the classic mode: the whole cluster in this process over
// the simulated network.
func runSim(o *options, cfg core.Config, app apps.App) {
	cfg.Latency, cfg.PerByte, cfg.Advise = o.latency, o.perByte, o.advise
	spec := cluster.Spec{Cfg: cfg, App: func() apps.App { return app }, Observe: o.observe()}
	if o.chaos {
		plan := chaos.DefaultPlan(o.nodes, o.seed)
		spec.Chaos = &plan
	}
	if o.watch {
		spec.Watch = os.Stderr
	}
	res, err := cluster.Run(spec)
	verdict := "ok"
	if err != nil {
		if res == nil {
			fatal("%v", err)
		}
		verdict = err.Error() // ran to completion, result differs from the reference
	}
	if o.traceFile != "" {
		writeChromeFile(o.traceFile, res.Traces)
	}
	if o.statsFmt == "json" {
		if err := printJSON(os.Stdout, app, cfg, res.Elapsed, verdict, res.Nodes, 0); err != nil {
			fatal("encode stats: %v", err)
		}
	} else {
		fmt.Printf("app=%s protocol=%s nodes=%d page=%d elapsed=%v verify=%s\n",
			app.Name(), cfg.Protocol, cfg.Nodes, cfg.PageSize, res.Elapsed.Round(time.Microsecond), verdict)
		fmt.Print("transport=sim\n\n")
		fmt.Print(stats.PerNodeReport(res.Nodes))
		servingReport(os.Stdout, app)
		for _, smp := range res.Samplers {
			fmt.Printf("\nmetrics window (cluster aggregate):\n")
			metrics.RenderLocal(os.Stdout, smp.Window())
			if bad := smp.Reconcile(res.Total()); len(bad) != 0 {
				fmt.Printf("metrics reconcile mismatches: %v\n", bad)
			}
		}
		if o.chaos {
			t := res.Total()
			fmt.Printf("\nfaults injected: msgs_dropped=%d msgs_duplicated=%d msgs_spiked=%d partitions=%d stalls=%d\n",
				t.MsgsDropped, t.MsgsDuplicated, t.MsgsSpiked, t.Partitions, t.Stalls)
		}
		if res.Advisor != nil {
			fmt.Printf("\nsharing-pattern classification (Munin-style):\n%s", res.Advisor.Report())
		}
	}
	if verdict != "ok" {
		os.Exit(1)
	}
}

// runTCPNode hosts one node of a multi-process cluster.
func runTCPNode(o *options, cfg core.Config, app apps.App) {
	self := o.node
	if o.peers == "" {
		fatal("-transport tcp -node %d needs -peers host:port,... for every node", self)
	}
	addrs := strings.Split(o.peers, ",")
	if self >= len(addrs) {
		fatal("-node %d out of range: %d peers listed", self, len(addrs))
	}
	var ln net.Listener
	if o.listenFD > 0 {
		var err error
		if ln, err = cluster.FileListener(uintptr(o.listenFD), "dsmrun-listener"); err != nil {
			fatal("inherited listener: %v", err)
		}
	}
	cfg.Nodes = len(addrs)
	cfg.EventTrace = cfg.EventTrace || o.debugAddr != ""
	cfg.WatchdogTimeout = 30 * time.Second
	start := time.Now()
	res, err := cluster.RunNode(cluster.NodeOpts{
		Cfg:       cfg,
		App:       app,
		Self:      self,
		Addrs:     addrs,
		Listener:  ln,
		DebugAddr: o.debugAddr,
		OnDebug: func(addr string) {
			fmt.Printf("node %d: debug endpoint http://%s\n", self, addr)
		},
		Observe: o.observe(),
	})
	if err != nil {
		fatal("node %d: %v", self, err)
	}
	if o.traceFile != "" && len(res.Traces) > 0 {
		writeChromeFile(fmt.Sprintf("%s.node%d", o.traceFile, self), res.Traces)
	}
	if o.statsFmt == "json" {
		if err := printJSON(os.Stdout, app, cfg, res.Elapsed, "ok", res.Nodes, self); err != nil {
			fatal("encode stats: %v", err)
		}
		return
	}
	if self == 0 {
		fmt.Printf("app=%s protocol=%s nodes=%d page=%d elapsed=%v verify=ok\n",
			app.Name(), cfg.Protocol, cfg.Nodes, cfg.PageSize, res.Elapsed.Round(time.Microsecond))
		if res.HasChecksum {
			fmt.Printf("checksum=%016x\n", res.Checksum)
		}
	}
	fmt.Printf("node %d: transport=tcp total=%v\n", self, time.Since(start).Round(time.Millisecond))
	fmt.Print(stats.PerNodeReport(res.Nodes))
	servingReport(os.Stdout, app)
}

// prefixWriter labels each child's output lines with its node id so
// the demo's interleaved streams stay readable.
type prefixWriter struct {
	mu     *sync.Mutex
	prefix string
	buf    bytes.Buffer
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete line: keep for later
			break
		}
		fmt.Printf("%s%s", w.prefix, line)
	}
	return len(p), nil
}

// runTCPDemo spawns the whole cluster as child dsmrun processes on
// loopback: it pre-binds every node's port (no races, no fixed port
// list) and hands each child its listener as an inherited fd. With
// -watch it also reserves one debug port per child, passes it as that
// child's -debug-addr, and polls every endpoint into a live dashboard
// while the cluster runs.
func runTCPDemo(o *options) {
	nodes := o.nodes
	if o.peers != "" {
		fatal("either -node i -peers ... (join a cluster) or neither (spawn one locally)")
	}
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			fatal("%v", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	// The dashboard needs to know each child's debug address before it
	// starts, so reserve ports up front: bind :0, record, release, and
	// pass the exact address. (The tiny rebind window is fine for a
	// demo; the DSM ports themselves use inherited fds.)
	var debugAddrs []string
	if o.watch {
		for i := 0; i < nodes; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal("%v", err)
			}
			debugAddrs = append(debugAddrs, ln.Addr().String())
			ln.Close()
		}
	}
	fmt.Printf("spawning %d node processes on %s\n", nodes, strings.Join(addrs, " "))
	args := append([]string{}, os.Args[1:]...)
	var mu sync.Mutex
	cmds := make([]*exec.Cmd, nodes)
	for i := range cmds {
		f, err := cluster.ListenerFile(lns[i])
		if err != nil {
			fatal("%v", err)
		}
		childArgs := append(append([]string{}, args...),
			"-node", strconv.Itoa(i),
			"-peers", strings.Join(addrs, ","),
			"-listen-fd", "3")
		if o.watch {
			// Appended last so it wins over any user-supplied :0 value.
			childArgs = append(childArgs, "-debug-addr", debugAddrs[i], "-sample")
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.ExtraFiles = []*os.File{f}
		w := &prefixWriter{mu: &mu, prefix: fmt.Sprintf("[node %d] ", i)}
		cmd.Stdout = w
		cmd.Stderr = w
		if err := cmd.Start(); err != nil {
			fatal("spawn node %d: %v", i, err)
		}
		f.Close()
		lns[i].Close()
		cmds[i] = cmd
	}
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if o.watch {
		go func() {
			defer close(watchDone)
			// Plain append mode: the dashboard interleaves with the
			// children's prefixed output. `dsmrun -watch host:port ...`
			// gives the full-screen view.
			metrics.Watch(os.Stdout, debugAddrs, metrics.WatchOpts{Stop: stopWatch})
		}()
	}
	failed := false
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "dsmrun: node %d: %v\n", i, err)
			failed = true
		}
	}
	if o.watch {
		close(stopWatch)
		<-watchDone
	}
	if failed {
		os.Exit(1)
	}
}

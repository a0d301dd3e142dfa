// Package cluster owns the lifecycle of a workload run: Run(Spec)
// builds a whole cluster on either transport, arms the observers,
// sets the workload up, times its Run phase, verifies, checksums,
// collects one Result and tears everything down — the one path every
// experiment, tool and test takes.
//
// RunNode is the one-process half of the TCP branch (and all of
// `dsmrun -node`). Each OS process hosts one node: it builds a
// tcp.Transport from the shared address list, joins the cluster
// through the transport handshake (which rejects peers built with a
// different protocol, page size, or workload), runs the workload, and
// coordinates shutdown so no process exits while its pages or locks
// are still needed.
//
// The same deterministic bump allocator that lays out shared memory
// in the single-process simulator makes multi-process startup
// trivial: every process runs the workload's Setup independently and
// computes an identical heap layout, so no allocation metadata needs
// to cross the wire — only the config digest, to prove the layouts
// agree.
package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// ShutdownBarrier is the reserved barrier id used to quiesce the
// cluster around result verification: everyone arrives after Run, the
// verifier (node 0) reads the shared result, everyone arrives again,
// and only then may processes exit. Workloads must not use it.
const ShutdownBarrier int32 = 1<<30 - 1

// NodeOpts configures one process's node.
type NodeOpts struct {
	// Cfg is the cluster configuration; it must be identical in every
	// process (enforced by digest in the transport handshake).
	Cfg core.Config
	// App is the workload; every process constructs its own instance
	// with identical parameters.
	App apps.App
	// Self is this process's node id in [0, Cfg.Nodes).
	Self int
	// Addrs[i] is node i's listen address, identical in every process.
	Addrs []string
	// Listener optionally supplies a pre-bound listener for
	// Addrs[Self] — used when a parent process binds all ports up
	// front and passes them to children, eliminating bind races.
	Listener net.Listener
	// DialWindow bounds how long this node waits for peers to come up
	// (default 15s).
	DialWindow time.Duration
	// DebugAddr, if non-empty, serves this node's HTTP debug endpoint
	// (/stats, /trace, /histograms, /debug/pprof/) on that address for
	// the run's duration. "127.0.0.1:0" picks a free port; pair with
	// OnDebug to learn which. Trace and histogram routes carry data
	// only when Cfg.EventTrace is set.
	DebugAddr string
	// OnDebug, if set, receives the bound debug address once the
	// endpoint is listening (before the workload starts).
	OnDebug func(addr string)
	// Observe arms this node's sampler and flight recorder.
	Observe
}

// Observe selects the observers armed around a run. The sampler is
// served as /metrics (Prometheus text format) and /metrics.json on a
// TCP node's debug endpoint, captured by the flight recorder, and
// returned stopped in the Result.
type Observe struct {
	// Sample starts the metrics sampler: a time-series ring over the
	// counters — one per node over TCP, one whole-cluster aggregate on
	// the simulator. Needs Cfg.EventTrace for latency quantiles;
	// counters sample regardless.
	Sample bool
	// SampleInterval overrides the sampling period (default
	// metrics.DefaultInterval).
	SampleInterval time.Duration
	// TargetOpsPerSec is each node's open-loop serving target, enabling
	// the derived backlog gauge.
	TargetOpsPerSec float64
	// SLOTarget is the op-latency SLO threshold for the attainment
	// gauge (default metrics.DefaultSLOTarget).
	SLOTarget time.Duration
	// FlightDir arms the flight recorder: a watchdog stall or an
	// abnormal exit dumps a JSON bundle (samples, trace window,
	// goroutine profile, config digest) there, replayable with
	// `dsmtrace -flight FILE`; the returned error names the file.
	FlightDir string
}

// Result is what a completed run leaves behind: a whole cluster's
// view from Run, one node's from RunNode — the same shape either way.
type Result struct {
	// Elapsed covers the workload's Run phase only; for a whole
	// cluster, the slowest node's.
	Elapsed time.Duration
	// Nodes holds the counters of every node the run hosted, in
	// node-id order: protocol, traffic, fault and connection events.
	Nodes []stats.Snapshot
	// Checksum is the shared result's hash, computed by node 0 for
	// workloads implementing apps.Checker.
	Checksum    uint64
	HasChecksum bool
	// Traces are the nodes' event streams, empty unless Cfg.EventTrace
	// was set.
	Traces []trace.Stream
	// Samplers are the stopped metrics samplers, empty unless
	// Observe.Sample was set: one per entry of Nodes over TCP, a single
	// whole-cluster aggregate on the simulator. Each one's last sample
	// matches the final counters (Sampler.Reconcile against Nodes[i],
	// or against Total() for the aggregate).
	Samplers []*metrics.Sampler
	// Advisor is the sharing-pattern collector, nil unless Cfg.Advise.
	Advisor *advisor.Collector
}

// Total sums the per-node counters.
func (r *Result) Total() stats.Snapshot { return stats.Sum(r.Nodes) }

// digestFor fingerprints everything the processes must agree on:
// cluster config and workload identity.
func digestFor(cfg core.Config, app apps.App) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, cfg.Digest(); i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(app.Name()))
	return h.Sum64()
}

// observers is the sampler + flight-recorder pair both run paths arm.
type observers struct {
	smp *metrics.Sampler
	rec *metrics.Recorder
}

// hookStall routes the watchdog's stall report into the flight
// recorder. It must run before the cluster is built (OnStall is a
// Config field); arm fills the recorder in afterwards, and Dump is
// nil-safe until then.
func (ob *observers) hookStall(o Observe, cfg *core.Config) {
	if o.FlightDir == "" {
		return
	}
	prev := cfg.OnStall
	cfg.OnStall = func(report string) {
		ob.rec.Dump(report)
		if prev != nil {
			prev(report)
		}
	}
}

// arm starts the sampler and fills in the recorder over the built
// cluster c: per node over TCP, one whole-cluster aggregate (node -1,
// serving target every node's) on the simulator.
func (ob *observers) arm(o Observe, c *core.Cluster, digest uint64, app string) {
	node, target := c.Self(), o.TargetOpsPerSec
	if node < 0 {
		target *= float64(c.N())
	}
	if o.Sample {
		ob.smp = metrics.Start(metrics.Config{
			Node:            int32(node),
			Interval:        o.SampleInterval,
			Source:          c.TotalStats,
			TargetOpsPerSec: target,
			SLOTarget:       o.SLOTarget,
		})
	}
	if o.FlightDir != "" {
		ob.rec = &metrics.Recorder{
			Dir:    o.FlightDir,
			Node:   int32(node),
			Digest: digest,
			Meta: map[string]string{
				"app":       app,
				"protocol":  c.Config().Protocol.String(),
				"transport": c.TransportName(),
			},
			Sampler: ob.smp,
			Streams: c.TraceStreams,
		}
	}
}

// abnormal, deferred, dumps a flight bundle when the run is ending in
// *err (unless the watchdog already did) and names the file in it.
func (ob *observers) abnormal(err *error) {
	if *err == nil {
		return
	}
	if path, derr := ob.rec.Dump("cluster: run exiting abnormally: " + (*err).Error()); derr == nil && path != "" {
		*err = fmt.Errorf("%w (flight bundle: %s)", *err, path)
	}
}

// drive takes the built cluster c — every node on the simulator, this
// process's one over TCP — through the lifecycle all runs share:
// Setup, the timed Run phase (under plan's schedule, if any), checksum
// and verification through node 0, and collection once the counters
// stand still. When only the verification fails, the collected Result
// comes back alongside the error.
func drive(c *core.Cluster, app apps.App, plan *chaos.Plan, ob *observers) (*Result, error) {
	if err := app.Setup(c); err != nil {
		return nil, fmt.Errorf("cluster: %s setup: %w", app.Name(), err)
	}
	var inj *chaos.Injector
	if plan != nil {
		inj = plan.Start(c)
	}
	start := time.Now()
	err := c.Run(app.Run)
	res := &Result{Elapsed: time.Since(start), Advisor: c.Advisor()}
	if inj != nil {
		inj.Stop()
	}
	if err != nil {
		return nil, err
	}
	// Over TCP all nodes arrive before node 0 touches the result (its
	// reads may fault pages in from any peer), and again after, so no
	// process exits while another still needs it.
	self := c.Self()
	if self >= 0 {
		if err := c.Node(self).Barrier(ShutdownBarrier); err != nil {
			return nil, fmt.Errorf("cluster: pre-verify barrier: %w", err)
		}
	}
	var verifyErr error
	if c.Local(0) {
		if ck, ok := app.(apps.Checker); ok {
			if res.Checksum, err = ck.Checksum(c.Node(0)); err != nil {
				return nil, fmt.Errorf("cluster: %s checksum: %w", app.Name(), err)
			}
			res.HasChecksum = true
		}
		verifyErr = app.Verify(c)
	}
	if self >= 0 {
		if err := c.Node(self).Barrier(ShutdownBarrier); err != nil {
			return nil, fmt.Errorf("cluster: post-verify barrier: %w", err)
		}
	}
	if ob.smp != nil {
		quiesce(c)
	}
	// The counters are quiesced: the sampler's final sample equals the
	// snapshot taken next (Sampler.Reconcile's contract).
	ob.smp.Stop()
	if ob.smp != nil {
		res.Samplers = []*metrics.Sampler{ob.smp}
	}
	res.Nodes = c.Stats()
	res.Traces = c.TraceStreams()
	if verifyErr != nil {
		return res, fmt.Errorf("cluster: %s verify: %w", app.Name(), verifyErr)
	}
	return res, nil
}

// quiesce returns once the counters of the nodes c hosts have stood
// still for 100ms, or after five seconds. One-way traffic (token acks,
// a spiked or duplicated message) is still being
// received when the app returns, over TCP too: its shutdown barrier
// orders nothing on other pairs. 100ms is longer than any delivery
// delay the fault plans in this tree inject; 20ms was measured too
// short (one miss in 400 runs).
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

// RunNode hosts node o.Self for one full workload run and blocks
// until the cluster-wide shutdown handshake completes. It is the
// one-process building block of Run's TCP branch, of `dsmrun
// -transport tcp -node`, and of the multi-process tests.
func RunNode(o NodeOpts) (_ *Result, retErr error) {
	if o.App == nil {
		return nil, fmt.Errorf("cluster: no workload")
	}
	if len(o.Addrs) != o.Cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d peer addresses for %d nodes", len(o.Addrs), o.Cfg.Nodes)
	}
	digest := digestFor(o.Cfg, o.App)
	var ob observers
	ob.hookStall(o.Observe, &o.Cfg)
	defer ob.abnormal(&retErr)
	tr, err := tcp.New(tcp.Config{
		Self:         transport.NodeID(o.Self),
		Addrs:        o.Addrs,
		Listener:     o.Listener,
		ConfigDigest: digest,
		DialWindow:   o.DialWindow,
	})
	if err != nil {
		return nil, err
	}
	c, err := core.NewDistributedNode(o.Cfg, tr, o.Self)
	if err != nil {
		tr.Close()
		return nil, err
	}
	defer c.Close()
	ob.arm(o.Observe, c, digest, o.App.Name())
	defer ob.smp.Stop()
	if o.DebugAddr != "" {
		ds, err := trace.ServeDebug(o.DebugAddr, trace.DebugConfig{
			Node:   int32(o.Self),
			Stats:  c.TotalStats,
			Tracer: c.Tracer(o.Self),
			Extra: map[string]http.Handler{
				"/metrics":      ob.smp.PromHandler(),
				"/metrics.json": ob.smp.JSONHandler(),
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: debug endpoint: %w", err)
		}
		defer ds.Close()
		if o.OnDebug != nil {
			o.OnDebug(ds.Addr())
		}
	}
	res, err := drive(c, o.App, nil, &ob)
	if te := tr.Err(); err != nil && te != nil {
		err = fmt.Errorf("%w (transport: %v)", err, te)
	}
	return res, err
}

// Spec describes one run of one workload on a whole cluster.
type Spec struct {
	// Cfg is the cluster configuration.
	Cfg core.Config
	// App returns the workload. It is called once on the simulator and
	// once per node over TCP, where it must return a fresh,
	// identically parameterized instance each time (instances hold
	// per-node allocation state).
	App func() apps.App
	// TCP runs the cluster as Cfg.Nodes RunNodes inside this process —
	// one goroutine, transport, heap and workload instance per node,
	// talking through real loopback sockets — instead of one
	// core.Cluster over the simulated network.
	TCP bool
	// Chaos, if set, runs the workload under the plan: its faults,
	// retry policy and watchdog armed in Cfg, its partition/stall
	// schedule running for the timed phase. Simulator-only.
	Chaos *chaos.Plan
	// Observe arms the sampler and flight recorder.
	Observe
	// Watch, if set with Sample, receives the sampler's windowed
	// summary once a second during the run. Simulator-only; a TCP
	// cluster is watched through its debug endpoints (metrics.Watch).
	Watch io.Writer
	// OnDebug, if set, makes every TCP node serve its HTTP debug
	// endpoint on a free loopback port and receives each bound address
	// before that node's workload starts.
	OnDebug func(node int, addr string)
}

// Run executes the workload once on a fresh cluster and tears the
// cluster down: build, arm the observers, then drive. When only the
// verification against the sequential reference fails, the collected
// Result is returned alongside the error.
func Run(s Spec) (*Result, error) {
	if s.TCP {
		return runTCP(s)
	}
	return runSim(s)
}

func runSim(s Spec) (_ *Result, retErr error) {
	cfg, app := s.Cfg, s.App()
	if s.Chaos != nil {
		cfg = s.Chaos.Arm(cfg)
	}
	var ob observers
	ob.hookStall(s.Observe, &cfg)
	defer ob.abnormal(&retErr)
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ob.arm(s.Observe, c, cfg.Digest(), app.Name())
	defer ob.smp.Stop()
	if s.Watch != nil && ob.smp != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					metrics.RenderLocal(s.Watch, ob.smp.Window())
				}
			}
		}()
	}
	return drive(c, app, s.Chaos, &ob)
}

func runTCP(s Spec) (*Result, error) {
	if s.Chaos != nil {
		return nil, fmt.Errorf("cluster: chaos is simulator-only (a real network brings its own faults)")
	}
	n := s.Cfg.Nodes
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := NodeOpts{
			Cfg:      s.Cfg,
			App:      s.App(),
			Self:     i,
			Addrs:    addrs,
			Listener: lns[i],
			Observe:  s.Observe,
		}
		if s.OnDebug != nil {
			o.DebugAddr = "127.0.0.1:0"
			o.OnDebug = func(addr string) { s.OnDebug(o.Self, addr) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[o.Self], errs[o.Self] = RunNode(o)
		}()
	}
	wg.Wait()
	// Node 0's result carries the checksum; fold the others into it.
	res := results[0]
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, errs[i])
		}
		if i == 0 {
			continue
		}
		if r.Elapsed > res.Elapsed {
			res.Elapsed = r.Elapsed
		}
		res.Nodes = append(res.Nodes, r.Nodes...)
		res.Traces = append(res.Traces, r.Traces...)
		res.Samplers = append(res.Samplers, r.Samplers...)
	}
	return res, nil
}

// ListenerFile dups a TCP listener into an *os.File suitable for
// exec.Cmd.ExtraFiles, so a parent can pre-bind every node's port
// and hand each child its own listener (no bind races, ports chosen
// by the kernel).
func ListenerFile(ln net.Listener) (*os.File, error) {
	tl, ok := ln.(*net.TCPListener)
	if !ok {
		return nil, fmt.Errorf("cluster: %T is not a TCP listener", ln)
	}
	return tl.File()
}

// FileListener rebuilds a listener from an inherited descriptor (the
// child half of ListenerFile; ExtraFiles start at fd 3).
func FileListener(fd uintptr, name string) (net.Listener, error) {
	f := os.NewFile(fd, name)
	if f == nil {
		return nil, fmt.Errorf("cluster: bad listener fd %d", fd)
	}
	defer f.Close()
	return net.FileListener(f)
}

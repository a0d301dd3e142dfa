// Package cluster runs DSM nodes as members of a multi-process
// cluster over a real transport. Each OS process hosts one node:
// it builds a tcp.Transport from the shared address list, joins the
// cluster through the transport handshake (which rejects peers built
// with a different protocol, page size, or workload), runs the
// workload, and coordinates shutdown so no process exits while its
// pages or locks are still needed.
//
// The same deterministic bump allocator that lays out shared memory
// in the single-process simulator makes multi-process startup
// trivial: every process runs the workload's Setup independently and
// computes an identical heap layout, so no allocation metadata needs
// to cross the wire — only the config digest, to prove the layouts
// agree.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/apps"
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
	// ExtraDigest folds additional identity (e.g. a workload
	// parameterization) into the handshake digest.
	ExtraDigest uint64
	// Verify makes node 0 check the result against the workload's
	// sequential reference after the run.
	Verify bool
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
	// Sample starts the metrics sampler for this node: a time-series
	// ring over the node's counters, served as /metrics (Prometheus
	// text format) and /metrics.json (dsmtop) on the debug endpoint
	// and captured by the flight recorder. Needs Cfg.EventTrace for
	// latency quantiles; counters sample regardless.
	Sample bool
	// SampleInterval overrides the sampling period (default
	// metrics.DefaultInterval).
	SampleInterval time.Duration
	// TargetOpsPerSec is the node's open-loop serving target, enabling
	// the derived backlog gauge.
	TargetOpsPerSec float64
	// SLOTarget is the op-latency SLO threshold for the attainment
	// gauge (default metrics.DefaultSLOTarget).
	SLOTarget time.Duration
	// FlightDir arms the flight recorder: a watchdog stall or an
	// abnormal node exit dumps a JSON bundle (samples, trace window,
	// goroutine profile, config digest) there, replayable with
	// `dsmtrace -flight FILE`.
	FlightDir string
}

// Result is one node's view of a completed run.
type Result struct {
	// Elapsed covers the workload's Run phase only.
	Elapsed time.Duration
	// Stats are this node's protocol counters.
	Stats stats.Snapshot
	// Net is this node's transport traffic.
	Net transport.CountersSnapshot
	// Checksum is the shared result's hash; only node 0 computes it,
	// and only for workloads implementing apps.Checker.
	Checksum    uint64
	HasChecksum bool
	// Trace is this node's event stream, non-nil when Cfg.EventTrace
	// was set (each process traces only its own node).
	Trace *trace.Stream
	// Sampler is the node's stopped metrics sampler, non-nil when
	// NodeOpts.Sample was set — its last sample matches Stats, which
	// callers can assert with Sampler.Reconcile.
	Sampler *metrics.Sampler
}

// digestFor fingerprints everything the processes must agree on:
// cluster config, workload identity, and any caller extra.
func digestFor(cfg core.Config, app apps.App, extra uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, cfg.Digest(); i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	for i := 0; i < 8; i++ {
		b[i] = byte(extra >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(app.Name()))
	return h.Sum64()
}

// RunNode hosts node o.Self for one full workload run and blocks
// until the cluster-wide shutdown handshake completes. It is the
// common engine behind `dsmrun -transport tcp` and the multi-process
// tests.
func RunNode(o NodeOpts) (_ *Result, retErr error) {
	if o.App == nil {
		return nil, fmt.Errorf("cluster: no workload")
	}
	if len(o.Addrs) != o.Cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d peer addresses for %d nodes", len(o.Addrs), o.Cfg.Nodes)
	}
	digest := digestFor(o.Cfg, o.App, o.ExtraDigest)
	// Arm the flight recorder before the cluster exists: the watchdog
	// hook must be in the Config. rec is filled in below (Dump is
	// nil-safe until then), and the deferred dump catches abnormal
	// exits the watchdog didn't cause.
	var rec *metrics.Recorder
	if o.FlightDir != "" {
		prev := o.Cfg.OnStall
		o.Cfg.OnStall = func(report string) {
			rec.Dump(report)
			if prev != nil {
				prev(report)
			}
		}
		defer func() {
			if retErr == nil {
				return
			}
			if path, err := rec.Dump("cluster: node exiting abnormally: " + retErr.Error()); err == nil && path != "" {
				retErr = fmt.Errorf("%w (flight bundle: %s)", retErr, path)
			}
		}()
	}
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
	var smp *metrics.Sampler
	if o.Sample {
		smp = metrics.Start(metrics.Config{
			Node:            int32(o.Self),
			Interval:        o.SampleInterval,
			Source:          func() stats.Snapshot { return c.Stats()[0] },
			TargetOpsPerSec: o.TargetOpsPerSec,
			SLOTarget:       o.SLOTarget,
		})
		defer smp.Stop()
	}
	if o.FlightDir != "" {
		rec = &metrics.Recorder{
			Dir:    o.FlightDir,
			Node:   int32(o.Self),
			Digest: digest,
			Meta: map[string]string{
				"app":       o.App.Name(),
				"transport": "tcp",
			},
			Sampler: smp,
			Streams: func() []trace.Stream {
				if t := c.Tracer(o.Self); t != nil {
					return []trace.Stream{t.Stream()}
				}
				return nil
			},
		}
	}
	if o.DebugAddr != "" {
		ds, err := trace.ServeDebug(o.DebugAddr, trace.DebugConfig{
			Node:   int32(o.Self),
			Stats:  func() stats.Snapshot { return c.Stats()[0] },
			Tracer: c.Tracer(o.Self),
			Extra: map[string]http.Handler{
				"/metrics":      smp.PromHandler(),
				"/metrics.json": smp.JSONHandler(),
				// Per-peer round-trip estimates behind the retransmission timer.
				"/rtt": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(c.Node(o.Self).Runtime().PeerRTTs())
				}),
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
	if err := o.App.Setup(c); err != nil {
		return nil, fmt.Errorf("cluster: %s setup: %w", o.App.Name(), err)
	}
	start := time.Now()
	if err := c.Run(o.App.Run); err != nil {
		if te := tr.Err(); te != nil {
			return nil, fmt.Errorf("%w (transport: %v)", err, te)
		}
		return nil, err
	}
	res := &Result{Elapsed: time.Since(start)}
	n := c.Node(o.Self)
	// Quiesce: all nodes arrive before node 0 touches the result (its
	// reads may fault pages in from any peer), and again after, so no
	// process exits while another still needs it.
	if err := n.Barrier(ShutdownBarrier); err != nil {
		return nil, fmt.Errorf("cluster: pre-verify barrier: %w", err)
	}
	if o.Self == 0 {
		if ck, ok := o.App.(apps.Checker); ok {
			sum, err := ck.Checksum(n)
			if err != nil {
				return nil, fmt.Errorf("cluster: %s checksum: %w", o.App.Name(), err)
			}
			res.Checksum, res.HasChecksum = sum, true
		}
		if o.Verify {
			if err := o.App.Verify(c); err != nil {
				return nil, fmt.Errorf("cluster: %s verify: %w", o.App.Name(), err)
			}
		}
	}
	if err := n.Barrier(ShutdownBarrier); err != nil {
		return nil, fmt.Errorf("cluster: post-verify barrier: %w", err)
	}
	// Stop the sampler at the quiesce point so its final sample equals
	// the final counters read just below (Sampler.Reconcile's
	// contract).
	smp.Stop()
	res.Sampler = smp
	res.Stats = c.Stats()[0]
	res.Net = c.TransportCounters()
	if tr := c.Tracer(o.Self); tr != nil {
		s := tr.Stream()
		res.Trace = &s
	}
	return res, nil
}

// Loopback runs a full cfg.Nodes-process-shaped cluster inside this
// process: one goroutine per node, each with its own transport,
// heap, and workload instance, all talking through real TCP loopback
// sockets. newApp must return a fresh identically-parameterized
// workload per call (instances hold per-node allocation state).
// Results are indexed by node; index 0 carries the checksum.
func Loopback(cfg core.Config, newApp func() apps.App, verify bool) ([]*Result, error) {
	return LoopbackWith(cfg, newApp, verify, nil)
}

// LoopbackWith is Loopback with a per-node options hook: mod (may be
// nil) runs on each node's NodeOpts before it starts — how the E16
// experiment turns on sampling and debug endpoints for every member
// of an in-process TCP cluster.
func LoopbackWith(cfg core.Config, newApp func() apps.App, verify bool, mod func(o *NodeOpts)) ([]*Result, error) {
	lns := make([]net.Listener, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
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
	results := make([]*Result, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := NodeOpts{
				Cfg:      cfg,
				App:      newApp(),
				Self:     i,
				Addrs:    addrs,
				Listener: lns[i],
				Verify:   verify,
			}
			if mod != nil {
				mod(&o)
			}
			results[i], errs[i] = RunNode(o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return results, nil
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

// Package core is the public API of the DSM system: it assembles a
// simulated cluster (network, per-node runtimes, a protocol engine,
// and the synchronization service), exposes the shared address space
// through allocation helpers and each node's byte and typed-word
// accessors, and runs application functions one per node.
//
// A minimal program:
//
//	c, _ := core.NewCluster(core.Config{Nodes: 4, Protocol: core.LRC})
//	defer c.Close()
//	counter := c.MustAlloc(8)
//	c.Run(func(n *core.Node) error {
//	    n.Acquire(1)
//	    v, _ := n.ReadUint64(counter)
//	    n.WriteUint64(counter, v+1)
//	    n.Release(1)
//	    return n.Barrier(0)
//	})
package core

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/proto/ec"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Protocol selects the coherence/consistency engine.
type Protocol int

const (
	// SCCentral: sequential consistency, write-invalidate, one
	// central manager (Li & Hudak centralized manager).
	SCCentral Protocol = iota
	// SCFixed: write-invalidate with statically distributed managers.
	SCFixed
	// SCDynamic: write-invalidate with probable-owner chains.
	SCDynamic
	// SCBroadcast: write-invalidate locating owners by broadcast.
	SCBroadcast
	// Migrate: single-copy page migration (SRSW class).
	Migrate
	// CentralServer: no caching; every access is a remote operation
	// on the page's server (the simplest Stumm & Zhou class).
	CentralServer
	// FullReplication: read-replicated pages with write-update
	// through a per-page sequencer (MRMW class).
	FullReplication
	// ERCInvalidate: eager release consistency, home-based
	// multiple-writer with twins/diffs, invalidating sharers on flush.
	ERCInvalidate
	// ERCUpdate: eager release consistency propagating diffs to
	// sharers (Munin-style update).
	ERCUpdate
	// LRC: lazy release consistency (TreadMarks-style intervals,
	// write notices, on-demand diffs).
	LRC
	// HLRC: home-based lazy release consistency (Zhou/Iftode/Li):
	// LRC's notices, but diffs flush to per-page homes at interval
	// close and invalid pages revalidate with one home fetch.
	HLRC
	// EC: entry consistency (Midway-style lock-bound data shipped
	// with lock grants).
	EC
	// ECDiff: entry consistency shipping version-tagged diffs of the
	// bound ranges instead of full copies — the byte-range equivalent
	// of Midway's fine-grained updates.
	ECDiff
	numProtocols
)

var protocolNames = [...]string{
	SCCentral:       "sc-central",
	SCFixed:         "sc-fixed",
	SCDynamic:       "sc-dynamic",
	SCBroadcast:     "sc-broadcast",
	Migrate:         "migrate",
	CentralServer:   "central-server",
	FullReplication: "full-replication",
	ERCInvalidate:   "erc-invalidate",
	ERCUpdate:       "erc-update",
	LRC:             "lrc",
	HLRC:            "hlrc",
	EC:              "ec",
	ECDiff:          "ec-diff",
}

// String names the protocol.
func (p Protocol) String() string {
	if p >= 0 && int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Protocols lists every available protocol, for experiment sweeps.
func Protocols() []Protocol {
	out := make([]Protocol, 0, int(numProtocols))
	for p := Protocol(0); p < numProtocols; p++ {
		out = append(out, p)
	}
	return out
}

// ReleaseConsistent reports whether the protocol requires
// data-race-free applications synchronizing through locks/barriers
// (as opposed to per-access sequential consistency).
func (p Protocol) ReleaseConsistent() bool {
	switch p {
	case ERCInvalidate, ERCUpdate, LRC, HLRC, EC, ECDiff:
		return true
	}
	return false
}

// Config describes a cluster.
type Config struct {
	// Nodes is the cluster size (required, >= 1).
	Nodes int
	// Protocol selects the engine (default SCFixed).
	Protocol Protocol
	// PageSize in bytes, a power of two (default 1024).
	PageSize int
	// HeapBytes is the shared address space size (default 1 MiB).
	HeapBytes int64

	// Latency is the per-message network delay; PerByte adds a
	// bandwidth cost. Zero models an infinitely fast network (useful
	// for counting messages rather than measuring time).
	Latency time.Duration
	PerByte time.Duration
	// Jitter adds deterministic pseudo-random extra delay in
	// [0, Jitter) per message, for stress-testing interleavings.
	Jitter time.Duration
	Seed   int64

	// TreeBarrier selects the tree barrier; TreeFanout its arity.
	TreeBarrier bool
	TreeFanout  int

	// LRCBarrierGC enables lazy release consistency's barrier-time
	// garbage collection: barriers validate pending write notices
	// eagerly and reclaim diffs every node has seen, bounding memory
	// for long-running barrier programs. Ignored by other protocols.
	LRCBarrierGC bool

	// Advise records every access's page and node and makes a
	// Munin-style sharing-pattern classification available through
	// Cluster.Advisor().
	Advise bool

	// Batch enables the message-batching layer: one-way messages may
	// wait up to ~1ms to share a transport frame with other traffic to
	// the same destination, same-destination request groups travel as
	// one frame, and LRC pushes interval diffs to interested readers
	// (experiment E12 measures the message savings). Off by default so
	// message and byte counts stay directly comparable with the
	// unbatched protocol analyses.
	Batch bool

	// CallTimeout bounds internal RPCs (default 30s).
	CallTimeout time.Duration

	// EventTrace enables the causal event tracer (internal/trace):
	// each node records protocol events (faults, RPCs, sync, diffs,
	// chaos injections) into a ring buffer, exported through
	// Cluster.TraceStreams, and collects the latency histograms
	// reported by stats.PerNodeReport. Off by default; when off, the
	// instrumented paths cost one branch, allocate nothing, and every
	// counter matches a build without tracing. Node-local, so it is
	// excluded from Digest and usable in distributed mode.
	EventTrace bool
	// TraceCapacity is the per-node trace ring size (rounded up to a
	// power of two; default trace.DefaultCapacity). A full ring
	// overwrites its oldest events.
	TraceCapacity int
	// AccessTrace additionally records every application read/write
	// chunk as an access event (page, offset range, value hash) — the
	// input internal/racecheck consumes. Implies EventTrace. Size the
	// ring (TraceCapacity) for the run; the race checker reports
	// truncated streams rather than guessing.
	AccessTrace bool

	// BreakCoherence deliberately skips one invalidation in the SC
	// write-invalidate engines — a seeded protocol bug, kept only so
	// the race/SC checker has a known-bad input to catch. Test-only;
	// rejected in distributed mode, excluded from Digest.
	BreakCoherence bool

	// Faults injects network faults (drops, duplicates, latency
	// spikes) per the plan, seeded from Seed, beneath a retransmitting
	// link on every pair of nodes (simnet's link.go): the nodes see
	// each message once and in order, as over TCP, and run the
	// fault-free protocol unchanged. Simulator-only.
	Faults *simnet.FaultPlan
	// WatchdogTimeout arms a cluster-wide stall detector during Run:
	// if no node dispatches any message for this long while requests
	// are in flight, Run fails with a per-node dump of the stuck
	// calls. Zero disables the watchdog.
	WatchdogTimeout time.Duration

	// OnStall, if set, is called with the watchdog's stall report just
	// before the cluster is torn down — the flight recorder's hook to
	// capture evidence while the stuck state is still live. It runs on
	// the watchdog goroutine and must not block on cluster progress.
	// Node-local, excluded from Digest.
	OnStall func(report string)
}

func (c *Config) fillDefaults() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("core: Config.Nodes must be >= 1, got %d", c.Nodes)
	}
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.PageSize < 8 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("core: Config.PageSize must be a power of two >= 8, got %d", c.PageSize)
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 1 << 20
	}
	if c.Protocol < 0 || c.Protocol >= numProtocols {
		return fmt.Errorf("core: unknown protocol %d", c.Protocol)
	}
	if c.AccessTrace {
		c.EventTrace = true
	}
	return nil
}

// Digest fingerprints the configuration fields every process of a
// distributed cluster must agree on — cluster shape, protocol, and
// memory layout. The TCP handshake exchanges it so a node built with
// a different page size or protocol is rejected at connect time
// instead of corrupting the heap mid-run. Timing knobs are excluded:
// they are simulator-only or node-local. So are the node-local
// observers — Advise, EventTrace, AccessTrace, OnStall — which change
// what a node records, never what it sends.
func (c Config) Digest() uint64 {
	_ = c.fillDefaults() // so explicit defaults and zero values agree
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(c.Nodes))
	put(uint64(c.Protocol))
	put(uint64(c.PageSize))
	put(uint64(c.HeapBytes))
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(bit(c.Batch)<<3 | bit(c.TreeBarrier)<<2 | bit(c.LRCBarrierGC)<<1) // bit 0 stays clear: Advise=false digests are unchanged
	put(uint64(c.TreeFanout))
	return h.Sum64()
}

// Cluster is a running DSM system — either every node in this
// process over the simulated network (NewCluster), or this process's
// one node of a multi-process cluster over a real transport
// (NewDistributedNode).
type Cluster struct {
	cfg  Config
	tr   transport.Transport
	net  *simnet.Net // non-nil only on the simulator backend
	self int         // -1: all nodes local; else the one local node id
	// nodes holds the locally hosted nodes: all of them in simulator
	// mode, exactly one in distributed mode.
	nodes   []*Node
	sts     []*stats.Node
	tracers []*trace.Tracer // parallel to nodes; empty unless EventTrace

	allocMu sync.Mutex
	next    int64

	bindMu   sync.Mutex
	bindings map[int32][]Range

	adv *advisor.Collector

	runGen uint32 // Run invocations so far, numbering fork/join marks

	closeOnce sync.Once
}

// Range is a shared-memory byte range, used for entry-consistency
// lock bindings.
type Range = ec.Range

// Node is one DSM node; application functions receive their node and
// access shared memory and synchronization through it.
type Node struct {
	c    *Cluster
	rt   *nodecore.Runtime
	sync *dsync.Service
}

// NewCluster builds and starts a cluster with every node in this
// process, connected by the simulated network.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	net, err := simnet.New(simnet.Config{
		Nodes:   cfg.Nodes,
		Latency: simnet.ConstLatency(cfg.Latency, cfg.PerByte),
		Jitter:  cfg.Jitter,
		Seed:    cfg.Seed,
		Faults:  cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		tr:       net,
		net:      net,
		self:     -1,
		bindings: make(map[int32][]Range),
	}
	if cfg.Advise {
		pages := int((cfg.HeapBytes + int64(cfg.PageSize) - 1) / int64(cfg.PageSize))
		c.adv = advisor.New(pages, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := c.addNode(i); err != nil {
			net.Close()
			return nil, err
		}
	}
	c.start()
	return c, nil
}

// NewDistributedNode builds and starts this process's share of a
// multi-process cluster: node self of cfg.Nodes, reached through tr
// (typically a tcp.Transport). Every process must be started with an
// identical Config — compare Config.Digest in the transport
// handshake to enforce that. Simulator-only options (latency
// modelling, fault injection, BreakCoherence) are rejected: the real
// network supplies its own latency and faults. Node-local observers
// (EventTrace, AccessTrace, Advise) are allowed and see this node.
// A tcp transport delivers every frame it accepted, in order, or else
// goes down naming the lost peer, so nodes run the fault-free protocol
// there as everywhere.
func NewDistributedNode(cfg Config, tr transport.Transport, self int) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("core: NewDistributedNode: nil transport")
	}
	if tr.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("core: NewDistributedNode: transport has %d nodes, config says %d", tr.Nodes(), cfg.Nodes)
	}
	if self < 0 || self >= cfg.Nodes {
		return nil, fmt.Errorf("core: NewDistributedNode: node id %d out of range [0,%d)", self, cfg.Nodes)
	}
	switch {
	case cfg.Faults != nil:
		return nil, fmt.Errorf("core: NewDistributedNode: fault injection is simulator-only")
	case cfg.Latency != 0 || cfg.PerByte != 0 || cfg.Jitter != 0:
		return nil, fmt.Errorf("core: NewDistributedNode: latency modelling is simulator-only")
	case cfg.BreakCoherence:
		return nil, fmt.Errorf("core: NewDistributedNode: BreakCoherence is a test-only simulator knob")
	}
	c := &Cluster{
		cfg:      cfg,
		tr:       tr,
		self:     self,
		bindings: make(map[int32][]Range),
	}
	if cfg.Advise {
		pages := int((cfg.HeapBytes + int64(cfg.PageSize) - 1) / int64(cfg.PageSize))
		c.adv = advisor.New(pages, cfg.Nodes)
	}
	if err := c.addNode(self); err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// addNode constructs one locally hosted node on c.tr.
func (c *Cluster) addNode(i int) error {
	cfg := c.cfg
	tbl, err := mem.NewTable(cfg.HeapBytes, cfg.PageSize)
	if err != nil {
		return err
	}
	st := &stats.Node{}
	ep := c.tr.Endpoint(transport.NodeID(i))
	rt := nodecore.New(transport.NodeID(i), cfg.Nodes, ep, tbl, st)
	if cfg.CallTimeout > 0 {
		rt.SetCallTimeout(cfg.CallTimeout)
	}
	if cfg.EventTrace {
		st.Lat = &stats.LatHists{}
		tr := trace.New(int32(i), cfg.Nodes, cfg.TraceCapacity)
		rt.SetTracer(tr)
		if cfg.AccessTrace {
			rt.EnableAccessTrace()
		}
		if sep, ok := ep.(*simnet.Endpoint); ok {
			sep.SetTracer(tr) // chaos injections land in the stream too
		}
		c.tracers = append(c.tracers, tr)
	}
	if cfg.Batch {
		rt.EnableBatching()
	}
	if c.adv != nil {
		rt.SetAccessCollector(c.adv)
	}
	svc := dsync.New(rt, nil, dsync.Config{
		TreeBarrier: cfg.TreeBarrier,
		TreeFanout:  cfg.TreeFanout,
	})
	n := &Node{c: c, rt: rt, sync: svc}
	engine, hooks, err := c.buildEngine(rt, svc)
	if err != nil {
		return err
	}
	rt.SetEngine(engine)
	if hooks != nil {
		svc.SetHooks(hooks)
	}
	c.nodes = append(c.nodes, n)
	c.sts = append(c.sts, st)
	return nil
}

// start attaches the local nodes' runtimes to their endpoints (from
// then on the transport delivers into them; there is no receive loop to
// launch) and initialises the engines.
func (c *Cluster) start() {
	for _, n := range c.nodes {
		n.rt.Start()
	}
	for _, n := range c.nodes {
		n.rt.Engine().Init()
	}
}

// Close shuts the cluster down (in distributed mode: this process's
// node and transport). It is safe to call more than once.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.tr.Close()
		for _, n := range c.nodes {
			n.rt.Close()
		}
	})
}

// Config returns the cluster's (default-filled) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// N returns the node count.
func (c *Cluster) N() int { return c.cfg.Nodes }

// Node returns node i, for tests and tools that drive nodes
// directly; applications normally use Run. In distributed mode only
// the local node exists in this process; asking for any other panics.
func (c *Cluster) Node(i int) *Node {
	if c.self >= 0 {
		if i != c.self {
			panic(fmt.Sprintf("core: Node(%d): only node %d lives in this process", i, c.self))
		}
		return c.nodes[0]
	}
	return c.nodes[i]
}

// Self returns the local node id in distributed mode, or -1 when
// every node runs in this process.
func (c *Cluster) Self() int { return c.self }

// Local reports whether node i is hosted by this process.
func (c *Cluster) Local(i int) bool { return c.self < 0 || i == c.self }

// PageSize returns the configured page size.
func (c *Cluster) PageSize() int { return c.cfg.PageSize }

// Run executes fn once per node concurrently and waits for all to
// finish. It returns the chronologically first error: when one node
// fails early, the others typically time out later at a barrier or
// lock, and those secondary timeouts would mask the root cause. With
// Config.WatchdogTimeout set, a cluster-wide stall detector runs
// alongside and its verdict (with the per-node in-flight dump)
// supersedes the secondary errors it provokes.
func (c *Cluster) Run(fn func(n *Node) error) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	var wd *watchdog
	if c.cfg.WatchdogTimeout > 0 {
		wd = startWatchdog(c, c.cfg.WatchdogTimeout)
	}
	gen := c.runGen
	c.runGen++
	c.emitMarks(trace.MarkForkRelease, trace.MarkForkAcquire, gen)
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := fn(n); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("core: node %d: %w", n.ID(), err)
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	c.emitMarks(trace.MarkJoinRelease, trace.MarkJoinAcquire, gen)
	if wd != nil {
		if err := wd.halt(); err != nil {
			return err
		}
	}
	return first
}

// emitMarks records a fork or join synchronization point in every
// local tracer: the caller (Run) sequences all nodes here, so the
// race checker may join each node's release-mark clock into every
// node's acquire mark. Two passes — all releases, then all acquires —
// so every acquire can causally cover every release of its
// generation. Simulator-mode only: in distributed mode each process
// sees just its own node and generations are process-local, so a mark
// edge would assert cross-process ordering that was never
// communicated.
func (c *Cluster) emitMarks(release, acquire uint64, gen uint32) {
	if c.self >= 0 || len(c.tracers) == 0 {
		return
	}
	clocks := make([]vclock.VC, 0, len(c.tracers))
	for _, t := range c.tracers {
		t.Emit(trace.EvMark, -1, 0, -1, -1, trace.MarkArg(release, gen), 0)
		clocks = append(clocks, t.Clock())
	}
	for _, t := range c.tracers {
		for _, vc := range clocks {
			t.MergeClock(vc)
		}
		t.Emit(trace.EvMark, -1, 0, -1, -1, trace.MarkArg(acquire, gen), 0)
	}
}

// Partition blocks traffic between nodes a and b (both directions)
// for the given duration, then heals. Simulator-only; a no-op on
// real transports.
func (c *Cluster) Partition(a, b int, d time.Duration) {
	if c.net == nil {
		return
	}
	c.net.Partition(simnet.NodeID(a), simnet.NodeID(b), d)
}

// StallNode freezes message delivery into node id for the given
// duration (a GC pause / overloaded-host model); messages queue and
// deliver in order once the stall lifts. Simulator-only; a no-op on
// real transports.
func (c *Cluster) StallNode(id int, d time.Duration) {
	if c.net == nil {
		return
	}
	c.net.StallNode(simnet.NodeID(id), d)
}

// TransportName names the backend carrying this cluster's messages
// ("sim" or "tcp").
func (c *Cluster) TransportName() string { return c.tr.Name() }

// Stats returns a per-node snapshot of the counters.
func (c *Cluster) Stats() []stats.Snapshot {
	out := make([]stats.Snapshot, len(c.sts))
	for i, st := range c.sts {
		out[i] = st.Snapshot()
	}
	return out
}

// TotalStats aggregates all nodes' counters.
func (c *Cluster) TotalStats() stats.Snapshot { return stats.Sum(c.Stats()) }

// Advisor returns the sharing-pattern collector, or nil unless
// Config.Advise was set.
func (c *Cluster) Advisor() *advisor.Collector { return c.adv }

// Tracer returns locally hosted node i's event tracer, or nil unless
// Config.EventTrace was set. In distributed mode only the local node
// has one; other ids return nil.
func (c *Cluster) Tracer(i int) *trace.Tracer {
	for _, t := range c.tracers {
		if int(t.Node()) == i {
			return t
		}
	}
	return nil
}

// TraceStreams snapshots every locally hosted node's trace ring for
// merging and export. Empty unless Config.EventTrace was set.
func (c *Cluster) TraceStreams() []trace.Stream {
	out := make([]trace.Stream, 0, len(c.tracers))
	for _, t := range c.tracers {
		out = append(out, t.Stream())
	}
	return out
}

// Alloc reserves n bytes of shared address space aligned to align (a
// power of two; 0 means 8). Allocation is a deterministic bump
// allocator — all nodes see the same layout by construction, as in a
// statically laid out DSM program.
func (c *Cluster) Alloc(n int64, align int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("core: Alloc(%d): negative size", n)
	}
	if align == 0 {
		align = 8
	}
	if align < 1 || align&(align-1) != 0 {
		return 0, fmt.Errorf("core: Alloc: alignment %d is not a power of two", align)
	}
	c.allocMu.Lock()
	defer c.allocMu.Unlock()
	addr := (c.next + align - 1) &^ (align - 1)
	if addr+n > c.cfg.HeapBytes {
		return 0, fmt.Errorf("core: Alloc: heap exhausted: want %d bytes at %#x, heap is %#x", n, addr, c.cfg.HeapBytes)
	}
	c.next = addr + n
	return addr, nil
}

// AllocPage reserves n bytes aligned to a page boundary, avoiding
// false sharing with neighbouring allocations.
func (c *Cluster) AllocPage(n int64) (int64, error) {
	return c.Alloc(n, int64(c.cfg.PageSize))
}

// MustAlloc is Alloc(n, 0) panicking on failure, for setup code.
func (c *Cluster) MustAlloc(n int64) int64 {
	addr, err := c.Alloc(n, 0)
	if err != nil {
		panic(err)
	}
	return addr
}

// Bind associates a shared-memory range with a lock for entry
// consistency: the range's current contents travel with the lock's
// grants. Bind must be called before the data is used and with the
// same arguments on the single cluster (bindings are cluster-wide).
// Protocols other than EC ignore bindings.
func (c *Cluster) Bind(lock int32, addr int64, length int) {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	c.bindings[lock] = append(c.bindings[lock], Range{Addr: addr, Len: length})
}

// BindEvent associates a shared-memory range with an event for entry
// consistency: the range's contents travel with the event firing.
func (c *Cluster) BindEvent(event int32, addr int64, length int) {
	c.Bind(dsync.EventHookID(event), addr, length)
}

// BindingsOf returns the ranges bound to a lock.
func (c *Cluster) BindingsOf(lock int32) []Range {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	return append([]Range(nil), c.bindings[lock]...)
}

// ---------------------------------------------------------------
// Node API
// ---------------------------------------------------------------

// ID returns this node's id in [0, N).
func (n *Node) ID() int { return int(n.rt.ID()) }

// N returns the cluster size.
func (n *Node) N() int { return n.rt.N() }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.c }

// ReadAt copies shared memory [addr, addr+len(buf)) into buf.
func (n *Node) ReadAt(addr int64, buf []byte) error { return n.rt.ReadAt(addr, buf) }

// WriteAt copies buf into shared memory at addr.
func (n *Node) WriteAt(addr int64, buf []byte) error { return n.rt.WriteAt(addr, buf) }

// ReadUint64 loads the 8-byte value at addr.
func (n *Node) ReadUint64(addr int64) (uint64, error) { return n.rt.ReadUint64(addr) }

// WriteUint64 stores an 8-byte value at addr.
func (n *Node) WriteUint64(addr int64, v uint64) error { return n.rt.WriteUint64(addr, v) }

// ReadInt64 loads the signed 8-byte value at addr.
func (n *Node) ReadInt64(addr int64) (int64, error) { return n.rt.ReadInt64(addr) }

// WriteInt64 stores a signed 8-byte value at addr.
func (n *Node) WriteInt64(addr int64, v int64) error { return n.rt.WriteInt64(addr, v) }

// ReadFloat64 loads the 8-byte float at addr.
func (n *Node) ReadFloat64(addr int64) (float64, error) { return n.rt.ReadFloat64(addr) }

// WriteFloat64 stores an 8-byte float at addr.
func (n *Node) WriteFloat64(addr int64, v float64) error { return n.rt.WriteFloat64(addr, v) }

// Acquire obtains lock id exclusively.
func (n *Node) Acquire(id int32) error { return n.sync.Acquire(id) }

// AcquireShared obtains lock id in shared (reader) mode.
func (n *Node) AcquireShared(id int32) error { return n.sync.AcquireShared(id) }

// Release gives up lock id.
func (n *Node) Release(id int32) error { return n.sync.Release(id) }

// Barrier waits until every node has reached barrier id.
func (n *Node) Barrier(id int32) error { return n.sync.Barrier(id) }

// EventWait blocks until event id is set (an acquire: the setter's
// writes — and, under EC, the event's bound data — become visible).
func (n *Node) EventWait(id int32) error { return n.sync.EventWait(id) }

// EventSet fires the set-once event id, releasing all waiters.
func (n *Node) EventSet(id int32) error { return n.sync.EventSet(id) }

// Runtime exposes the node runtime for advanced tooling and tests.
func (n *Node) Runtime() *nodecore.Runtime { return n.rt }

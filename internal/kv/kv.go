// Package kv is the DSM-backed key-value/session store — the repo's
// serving workload. Where every other app in the suite is a
// barrier-phased batch kernel, kvstore looks like "millions of
// users": fine-grained, skewed, read/write-mixed accesses arriving
// on an open-loop schedule, with SLO quantiles (p50/p99/p999)
// reported from the per-op latency histogram.
//
// Layout: the key space is hashed into fixed-size 32-byte slots
// (version | state | 16 value bytes) packed many-per-page, so the
// DSM's coherence granularity — whole pages or lock-bound ranges —
// is genuinely exercised by single-slot operations. Slots are
// striped across a small set of locks; each stripe's contiguous slot
// range is bound to its lock, which makes the store legal under
// entry consistency and data-race-free everywhere (every access
// happens inside its stripe's critical section).
//
// Determinism: writes (Put/Delete) are issued only for keys the
// writing node owns (key % nodes == node; the load generator snaps
// them), so each slot's final (version, state, value) is a function
// of one node's deterministic op stream regardless of how the
// cluster's operations interleave — which is what lets Verify replay
// the streams sequentially and the cluster checksum be asserted
// bit-identical across the simulator and real TCP transports.
package kv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/wire"
)

const (
	// kvLockBase is the first stripe lock id (the suite's other apps
	// use small ids; pipeline's event hooks use 40+).
	kvLockBase int32 = 64

	// Slot layout: version (8) | state (8) | value (2 words).
	slotBytes    = 32
	slotValWords = 2

	stateEmpty uint64 = 0
	stateLive  uint64 = 1
	stateTomb  uint64 = 2

	// Barrier ids used by Run (app-local, like every other workload).
	barStart int32 = 0
	barEnd   int32 = 1
)

// Params configures the store and its load.
type Params struct {
	// Keys is the key-space size: a power of two >= 2*nodes. One slot
	// per key (direct-mapped through a bijective hash).
	Keys int
	// Ops is the per-node operation count.
	Ops int
	// QPS is the per-node open-loop target rate; 0 runs unpaced
	// (closed loop, latency = service time).
	QPS float64
	// Dist/Theta select the key distribution (loadgen.Uniform or
	// loadgen.Zipfian with skew Theta).
	Dist  loadgen.Dist
	Theta float64
	// Mix is the op profile (loadgen.ReadHeavy/WriteHeavy/Mixed).
	Mix loadgen.Mix
	// Seed drives the deterministic op streams.
	Seed int64
	// Stripes is the lock-stripe count (a power of two dividing Keys;
	// default 8). More stripes mean less lock contention and more
	// lock-grant traffic.
	Stripes int
}

func (p *Params) fillDefaults() {
	if p.Keys == 0 {
		p.Keys = 256
	}
	if p.Ops == 0 {
		p.Ops = 300
	}
	if p.Mix == (loadgen.Mix{}) {
		p.Mix = loadgen.Mixed
	}
	if p.Stripes == 0 {
		p.Stripes = 8
		if p.Stripes > p.Keys {
			p.Stripes = p.Keys
		}
	}
}

// NodeReport is one node's serving summary for a finished run.
type NodeReport struct {
	Node             int
	Ops              int
	Gets, Puts, Dels int
	Elapsed          time.Duration
	AchievedQPS      float64
	TargetQPS        float64
	MaxBacklog       int
	LateOps          int
}

// Store is the key-value store as a workload (implements apps.App
// and apps.Checker).
type Store struct {
	p Params

	base      int64 // slot array base address
	perStripe int   // slots per stripe

	mu      sync.Mutex
	reports []NodeReport
}

// New builds a store; parameter validation happens in Setup (where
// the cluster size is known).
func New(p Params) *Store {
	p.fillDefaults()
	return &Store{p: p}
}

// NewSmall is the correctness-test-scale instance registered in the
// app suite: unpaced mixed load over a zipf-skewed key space, small
// enough for the all-protocol matrix and the race-check sweep.
func NewSmall() *Store {
	return New(Params{Keys: 256, Ops: 240, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 1})
}

// NewMedium is the benchmark-scale instance.
func NewMedium() *Store {
	return New(Params{Keys: 1024, Ops: 2000, Dist: loadgen.Zipfian, Theta: 0.99, Mix: loadgen.ReadHeavy, Seed: 1})
}

// Params returns the (default-filled) parameters.
func (s *Store) Params() Params { return s.p }

// Name implements App.
func (s *Store) Name() string { return fmt.Sprintf("kvstore-%dx%d", s.p.Keys, s.p.Ops) }

// LocksOnly implements App: every shared byte is bound to its stripe
// lock and touched only inside that lock's critical section.
func (s *Store) LocksOnly() bool { return true }

// genConfig is the load-generator configuration for one node.
func (s *Store) genConfig(node, nodes int) loadgen.Config {
	return loadgen.Config{
		Seed:  s.p.Seed,
		Node:  node,
		Nodes: nodes,
		Keys:  s.p.Keys,
		Ops:   s.p.Ops,
		Dist:  s.p.Dist,
		Theta: s.p.Theta,
		Mix:   s.p.Mix,
	}
}

// Setup implements App: allocate the slot array page-aligned and
// bind each stripe's contiguous slot range to its lock.
func (s *Store) Setup(c *core.Cluster) error {
	if s.p.Keys&(s.p.Keys-1) != 0 || s.p.Keys < 2*c.N() {
		return fmt.Errorf("kv: Keys must be a power of two >= 2*nodes, got %d for %d nodes", s.p.Keys, c.N())
	}
	if s.p.Stripes <= 0 || s.p.Stripes&(s.p.Stripes-1) != 0 || s.p.Keys%s.p.Stripes != 0 {
		return fmt.Errorf("kv: Stripes must be a power of two dividing Keys, got %d stripes for %d keys", s.p.Stripes, s.p.Keys)
	}
	if _, err := loadgen.New(s.genConfig(0, c.N())); err != nil {
		return err
	}
	var err error
	if s.base, err = c.AllocPage(int64(s.p.Keys) * slotBytes); err != nil {
		return err
	}
	s.perStripe = s.p.Keys / s.p.Stripes
	for st := 0; st < s.p.Stripes; st++ {
		c.Bind(kvLockBase+int32(st), s.base+int64(st*s.perStripe)*slotBytes, s.perStripe*slotBytes)
	}
	s.mu.Lock()
	s.reports = nil
	s.mu.Unlock()
	return nil
}

// slotOf maps a key to its slot by a bijective multiplicative hash
// (odd multiplier mod a power of two permutes the key space), so
// adjacent keys — and one node's owned keys — scatter across pages
// and stripes.
func (s *Store) slotOf(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) & uint64(s.p.Keys-1))
}

func (s *Store) slotAddr(slot int) int64 { return s.base + int64(slot)*slotBytes }

// lockOf returns the stripe lock guarding a slot.
func (s *Store) lockOf(slot int) int32 { return kvLockBase + int32(slot/s.perStripe) }

// valueWords derives the stored value words from (key, val): a
// deterministic function both the writer and the Verify replay
// compute identically.
func valueWords(key, val uint64) (uint64, uint64) {
	return val, val ^ (key*0x94d049bb133111eb + 1)
}

// encodeSlot fills buf (slotBytes long) with a slot image.
func encodeSlot(buf []byte, version, state, w0, w1 uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], version)
	binary.LittleEndian.PutUint64(buf[8:16], state)
	binary.LittleEndian.PutUint64(buf[16:24], w0)
	binary.LittleEndian.PutUint64(buf[24:32], w1)
}

// Get reads a key's slot into buf (len >= slotBytes) under its
// stripe lock, held shared, and reports whether the key is live.
// Allocation-free: buf is caller-owned and reused across the hot loop.
func (s *Store) Get(n *core.Node, key uint64, buf []byte) (live bool, version uint64, err error) {
	slot := s.slotOf(key)
	lock := s.lockOf(slot)
	if err := n.AcquireShared(lock); err != nil {
		return false, 0, err
	}
	if err := n.ReadAt(s.slotAddr(slot), buf[:slotBytes]); err != nil {
		_ = n.Release(lock)
		return false, 0, err
	}
	if err := n.Release(lock); err != nil {
		return false, 0, err
	}
	return binary.LittleEndian.Uint64(buf[8:16]) == stateLive, binary.LittleEndian.Uint64(buf[0:8]), nil
}

// Put stores a key's value under its stripe lock, bumping the slot
// version. buf is a caller-owned scratch slot image.
func (s *Store) Put(n *core.Node, key, val uint64, buf []byte) error {
	w0, w1 := valueWords(key, val)
	return s.write(n, key, stateLive, w0, w1, buf)
}

// Delete tombstones a key under its stripe lock, bumping the slot
// version (a delete is a write: its ordering matters to replay).
func (s *Store) Delete(n *core.Node, key uint64, buf []byte) error {
	return s.write(n, key, stateTomb, 0, 0, buf)
}

func (s *Store) write(n *core.Node, key, state, w0, w1 uint64, buf []byte) error {
	slot := s.slotOf(key)
	lock := s.lockOf(slot)
	addr := s.slotAddr(slot)
	if err := n.Acquire(lock); err != nil {
		return err
	}
	// Read-modify-write of the version word, all inside the critical
	// section.
	if err := n.ReadAt(addr, buf[:8]); err != nil {
		_ = n.Release(lock)
		return err
	}
	version := binary.LittleEndian.Uint64(buf[0:8]) + 1
	encodeSlot(buf[:slotBytes], version, state, w0, w1)
	if err := n.WriteAt(addr, buf[:slotBytes]); err != nil {
		_ = n.Release(lock)
		return err
	}
	return n.Release(lock)
}

// Run implements App: generate this node's deterministic op stream,
// then serve it open-loop at the target QPS, recording each op's
// latency — measured from its scheduled arrival, so queueing delay
// behind a slow DSM counts — into the node's latency histograms.
func (s *Store) Run(n *core.Node) error {
	gen, err := loadgen.New(s.genConfig(n.ID(), n.N()))
	if err != nil {
		return err
	}
	// Everything that allocates happens before the timed loop: the
	// materialized op stream and the pooled slot buffer (wire pool
	// ownership rules: we got it, we put it back after the last use).
	ops := gen.Stream()
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	for cap(*bp) < slotBytes {
		*bp = append((*bp)[:cap(*bp)], 0)
	}
	buf := (*bp)[:slotBytes]
	lat := n.Runtime().Stats().Lat // nil unless EventTrace

	rep := NodeReport{Node: n.ID(), Ops: len(ops), TargetQPS: s.p.QPS}
	// Start the schedule together: an open-loop rate is a cluster-wide
	// statement, not a per-node race.
	if err := n.Barrier(barStart); err != nil {
		return err
	}
	pacer := loadgen.NewPacer(s.p.QPS)
	pacer.Begin()
	start := time.Now()
	for i, op := range ops {
		arrival := pacer.Arrival(i)
		switch op.Kind {
		case loadgen.Get:
			rep.Gets++
			if _, _, err := s.Get(n, op.Key, buf); err != nil {
				return fmt.Errorf("op %d get key %d: %w", i, op.Key, err)
			}
		case loadgen.Put:
			rep.Puts++
			if err := s.Put(n, op.Key, op.Val, buf); err != nil {
				return fmt.Errorf("op %d put key %d: %w", i, op.Key, err)
			}
		default:
			rep.Dels++
			if err := s.Delete(n, op.Key, buf); err != nil {
				return fmt.Errorf("op %d del key %d: %w", i, op.Key, err)
			}
		}
		if lat != nil {
			lat.Op.Observe(time.Since(arrival).Nanoseconds())
		}
	}
	rep.Elapsed = time.Since(start)
	rep.MaxBacklog = pacer.MaxBacklog()
	rep.LateOps = pacer.LateOps()
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.AchievedQPS = float64(rep.Ops) / secs
	}
	if err := n.Barrier(barEnd); err != nil {
		return err
	}
	s.mu.Lock()
	s.reports = append(s.reports, rep)
	s.mu.Unlock()
	return nil
}

// Reports returns the per-node serving summaries of the last run
// (only locally hosted nodes in distributed mode), ordered by node.
func (s *Store) Reports() []NodeReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]NodeReport(nil), s.reports...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Node < out[j-1].Node; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// expected replays every node's op stream sequentially and returns
// the slot array's expected final image. Writes to any one key come
// from exactly one node (the generator snaps write keys to their
// owner), so per-node program order fully determines each slot.
func (s *Store) expected(nodes int) ([]byte, error) {
	img := make([]byte, s.p.Keys*slotBytes)
	for node := 0; node < nodes; node++ {
		gen, err := loadgen.New(s.genConfig(node, nodes))
		if err != nil {
			return nil, err
		}
		for _, op := range gen.Stream() {
			if op.Kind == loadgen.Get {
				continue
			}
			slot := s.slotOf(op.Key)
			b := img[slot*slotBytes : slot*slotBytes+slotBytes]
			version := binary.LittleEndian.Uint64(b[0:8]) + 1
			if op.Kind == loadgen.Put {
				w0, w1 := valueWords(op.Key, op.Val)
				encodeSlot(b, version, stateLive, w0, w1)
			} else {
				encodeSlot(b, version, stateTomb, 0, 0)
			}
		}
	}
	return img, nil
}

// readStripes reads the whole slot array through n, stripe by stripe
// under each stripe's lock — the access discipline entry consistency
// requires for bound data.
func (s *Store) readStripes(n *core.Node, visit func(stripe int, data []byte) error) error {
	buf := make([]byte, s.perStripe*slotBytes)
	for st := 0; st < s.p.Stripes; st++ {
		lock := kvLockBase + int32(st)
		if err := n.Acquire(lock); err != nil {
			return err
		}
		if err := n.ReadAt(s.base+int64(st*s.perStripe)*slotBytes, buf); err != nil {
			_ = n.Release(lock)
			return err
		}
		if err := n.Release(lock); err != nil {
			return err
		}
		if err := visit(st, buf); err != nil {
			return err
		}
	}
	return nil
}

// Verify implements App: the store's final image must equal the
// sequential replay of every node's deterministic stream.
func (s *Store) Verify(c *core.Cluster) error {
	want, err := s.expected(c.N())
	if err != nil {
		return err
	}
	return s.readStripes(c.Node(0), func(st int, data []byte) error {
		base := st * s.perStripe
		for i := 0; i < s.perStripe; i++ {
			got := data[i*slotBytes : (i+1)*slotBytes]
			exp := want[(base+i)*slotBytes : (base+i+1)*slotBytes]
			for b := range got {
				if got[b] != exp[b] {
					return fmt.Errorf("kv: slot %d (stripe %d) diverges: got version=%d state=%d value=%x, want version=%d state=%d value=%x",
						base+i, st,
						binary.LittleEndian.Uint64(got[0:8]), binary.LittleEndian.Uint64(got[8:16]), got[16:32],
						binary.LittleEndian.Uint64(exp[0:8]), binary.LittleEndian.Uint64(exp[8:16]), exp[16:32])
				}
			}
		}
		return nil
	})
}

// Checksum implements apps.Checker: FNV-1a over the slot array read
// under the stripe locks. Deterministic per configuration, so the
// multi-process TCP cluster must reproduce the simulator's value
// bit-for-bit.
func (s *Store) Checksum(n *core.Node) (uint64, error) {
	h := fnv.New64a()
	err := s.readStripes(n, func(_ int, data []byte) error {
		h.Write(data)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

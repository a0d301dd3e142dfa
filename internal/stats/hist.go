package stats

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Log-bucketed latency histograms. Bucket i counts observations whose
// nanosecond value v satisfies 2^(i-1) <= v < 2^i (bucket 0 holds
// v < 1ns, which in practice never fires); the top bucket absorbs
// everything at or above 2^(HistBuckets-2) ns (~4.6 minutes). The
// power-of-two layout makes Observe a single bit-length instruction
// plus three atomic adds — cheap enough to sit on fault and RPC hot
// paths — while still resolving quantiles to within a factor of two,
// tightened below by linear interpolation inside the bucket.

// HistBuckets is the fixed bucket count of every histogram.
const HistBuckets = 40

// Hist is a concurrent log-bucketed histogram of nanosecond
// durations. The zero value is ready to use.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) // v in [2^(b-1), 2^b)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one duration in nanoseconds. Negative values are
// clamped to zero.
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// Snapshot copies the histogram into plain values.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist, safe to aggregate.
type HistSnapshot struct {
	Count   int64
	SumNs   int64
	MaxNs   int64
	Buckets [HistBuckets]int64
}

// Add returns the bucket-wise sum of two snapshots (max is the larger
// of the two maxima).
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := s
	out.Count += o.Count
	out.SumNs += o.SumNs
	if o.MaxNs > out.MaxNs {
		out.MaxNs = o.MaxNs
	}
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	return out
}

// Sub returns the bucket-wise difference s - o: the observations
// recorded between two snapshots of the same histogram. Counts are
// clamped at zero so a torn concurrent snapshot can never produce a
// negative window. MaxNs keeps the later snapshot's maximum (the
// per-window maximum is not recoverable from cumulative state).
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := s
	if out.Count -= o.Count; out.Count < 0 {
		out.Count = 0
	}
	if out.SumNs -= o.SumNs; out.SumNs < 0 {
		out.SumNs = 0
	}
	for i := range out.Buckets {
		if out.Buckets[i] -= o.Buckets[i]; out.Buckets[i] < 0 {
			out.Buckets[i] = 0
		}
	}
	return out
}

// FractionBelow estimates the fraction of observations at or below
// the given nanosecond threshold — the SLO attainment for a latency
// target. The straddling bucket contributes linearly. Returns 1 when
// the histogram is empty (no ops means no SLO misses).
func (s HistSnapshot) FractionBelow(ns int64) float64 {
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 1
	}
	var below float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		switch {
		case hi <= ns:
			below += float64(c)
		case lo < ns:
			below += float64(c) * float64(ns-lo) / float64(hi-lo)
		}
	}
	return below / float64(total)
}

// MeanNs returns the mean observation, or 0 when empty.
func (s HistSnapshot) MeanNs() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// Quantile estimates the q-quantile (q in [0, 1]) in nanoseconds by
// locating the bucket holding the q-th fractional observation and
// interpolating linearly within it. Returns 0 when empty.
//
// The rank is computed against the bucket total, not Count: Observe
// bumps count before the bucket add, so a snapshot taken concurrently
// can be torn — Count briefly exceeds the bucket sum — and a rank
// against Count would walk past every bucket and report MaxNs for all
// quantiles of an otherwise healthy histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			// Position of the target rank within this bucket.
			frac := (rank - seen) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if int64(v) > s.MaxNs && s.MaxNs > 0 {
				return s.MaxNs
			}
			return int64(v)
		}
		seen += float64(c)
	}
	return s.MaxNs
}

// bucketBounds returns bucket i's [lo, hi) nanosecond range.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// LatHists groups the per-node latency histograms recorded when event
// tracing is enabled (core.Config.EventTrace): where a node's time
// went, by protocol phase. A nil *LatHists (the default) disables
// recording; call sites guard with a nil check so the disabled path
// costs one predictable branch and zero allocations.
type LatHists struct {
	Fault       Hist // page-fault service time (engine ReadFault/WriteFault)
	RPC         Hist // request round-trip time (Call/CallT/CallBatched)
	LockWait    Hist // lock and event-wait acquisition latency; lock acquires that neither queued nor sent are not observed
	BarrierWait Hist // barrier wait (arrive to release)
	Op          Hist // application-level serving-op latency (kv Get/Put/Delete, open-loop: queueing delay included)
}

// Snapshot copies all histograms.
func (l *LatHists) Snapshot() LatSnapshot {
	return LatSnapshot{
		Fault:       l.Fault.Snapshot(),
		RPC:         l.RPC.Snapshot(),
		LockWait:    l.LockWait.Snapshot(),
		BarrierWait: l.BarrierWait.Snapshot(),
		Op:          l.Op.Snapshot(),
	}
}

// LatSnapshot is a point-in-time copy of a node's latency histograms.
type LatSnapshot struct {
	Fault       HistSnapshot
	RPC         HistSnapshot
	LockWait    HistSnapshot
	BarrierWait HistSnapshot
	Op          HistSnapshot
}

// Add aggregates two latency snapshots bucket-wise.
func (s LatSnapshot) Add(o LatSnapshot) LatSnapshot {
	return LatSnapshot{
		Fault:       s.Fault.Add(o.Fault),
		RPC:         s.RPC.Add(o.RPC),
		LockWait:    s.LockWait.Add(o.LockWait),
		BarrierWait: s.BarrierWait.Add(o.BarrierWait),
		Op:          s.Op.Add(o.Op),
	}
}

// Sub returns the class-wise window s - o.
func (s LatSnapshot) Sub(o LatSnapshot) LatSnapshot {
	return LatSnapshot{
		Fault:       s.Fault.Sub(o.Fault),
		RPC:         s.RPC.Sub(o.RPC),
		LockWait:    s.LockWait.Sub(o.LockWait),
		BarrierWait: s.BarrierWait.Sub(o.BarrierWait),
		Op:          s.Op.Sub(o.Op),
	}
}

// NamedHist is one latency class with its name, for rendering.
type NamedHist struct {
	Name string
	HistSnapshot
}

// Classes returns the latency classes in report order.
func (s LatSnapshot) Classes() []NamedHist {
	return []NamedHist{
		{"fault", s.Fault},
		{"rpc", s.RPC},
		{"lock_wait", s.LockWait},
		{"barrier_wait", s.BarrierWait},
		{"op", s.Op},
	}
}

// latReport renders the latency histogram table appended to
// PerNodeReport when any node carries latency data.
func latReport(snaps []Snapshot) string {
	any := false
	for _, s := range snaps {
		if s.Lat != nil {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	t := NewTable("node", "class", "count", "p50_us", "p90_us", "p99_us", "p999_us", "max_us", "mean_us")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	row := func(label string, ls LatSnapshot) {
		for _, c := range ls.Classes() {
			if c.Count == 0 {
				continue
			}
			t.AddRow(label, c.Name, c.Count, us(c.Quantile(0.5)), us(c.Quantile(0.9)), us(c.Quantile(0.99)), us(c.Quantile(0.999)), us(c.MaxNs), us(c.MeanNs()))
		}
	}
	for i, s := range snaps {
		if s.Lat != nil {
			row(fmt.Sprint(i), *s.Lat)
		}
	}
	if total := Sum(snaps); total.Lat != nil {
		row("total", *total.Lat)
	}
	return "latency histograms:\n" + t.String()
}

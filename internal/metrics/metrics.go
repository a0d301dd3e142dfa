// Package metrics is the cluster's time-series layer: a periodic
// sampler that snapshots a node's (or the whole simulator cluster's)
// stats counters and latency histograms into a fixed-size timestamped
// ring, and derives windowed rates (msgs/s, faults/s, serving QPS),
// a schedule-backlog gauge, and SLO attainment from the deltas
// between samples. The ring feeds three consumers: the Prometheus
// text exposition (prom.go) served as /metrics on the debug
// endpoint, the JSON window served as /metrics.json for dsmrun -watch
// (watch.go), and the flight recorder's post-mortem bundle
// (flight.go).
//
// The sampler is strictly observation-only: it reads counters that
// the protocol already maintains with atomics, runs on its own
// goroutine, and installs no hooks on any hot path. A disabled
// sampler (nil *Sampler) costs nothing and every method is nil-safe,
// mirroring the tracing layer's contract — sampler off must mean
// counter-identical runs, enforced by the E16 acceptance tests.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// DefaultInterval is the sampling period when Config.Interval is 0.
const DefaultInterval = 250 * time.Millisecond

// DefaultWindow is the ring capacity in samples when Config.Window
// is 0. At the default interval it retains one minute of history.
const DefaultWindow = 240

// DefaultSLOTarget is the op-latency SLO threshold when
// Config.SLOTarget is 0.
const DefaultSLOTarget = 10 * time.Millisecond

// Config describes one sampler.
type Config struct {
	// Node labels the series (-1: whole-cluster aggregate, as in
	// simulator mode where Source sums every node).
	Node int32
	// Interval is the sampling period (default DefaultInterval).
	Interval time.Duration
	// Window is the ring capacity in samples (default DefaultWindow).
	Window int
	// Source supplies the counters; required. It must be safe to call
	// from the sampler goroutine (stats snapshots are).
	Source func() stats.Snapshot
	// TargetOpsPerSec is the open-loop serving target, enabling the
	// derived backlog gauge: ops the schedule has issued beyond what
	// the store completed. 0 leaves the gauge at zero.
	TargetOpsPerSec float64
	// SLOTarget is the op-latency threshold for the SLO-attainment
	// gauge (default DefaultSLOTarget).
	SLOTarget time.Duration
}

// Sample is one timestamped observation.
type Sample struct {
	UnixNs int64          `json:"unix_ns"`
	Snap   stats.Snapshot `json:"snap"`
	// Backlog is the derived open-loop schedule backlog at this
	// sample: max(0, backlog' + target*dt - completed ops). It starts
	// accumulating at the first sample that has seen an op, so setup
	// time before the load generator starts is not billed.
	Backlog float64 `json:"backlog"`
}

// Sampler periodically snapshots a Source into a ring. All methods
// are safe on a nil receiver and for concurrent use.
type Sampler struct {
	cfg     Config
	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool

	mu   sync.Mutex
	ring []Sample
	n    uint64 // samples taken; ring index n%len(ring)
}

// Start builds a sampler and launches its goroutine. It takes an
// immediate first sample so a window exists from the start; Stop
// takes a final one so the last sample equals the final counters.
func Start(cfg Config) *Sampler {
	if cfg.Source == nil {
		panic("metrics: Config.Source is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = DefaultSLOTarget
	}
	s := &Sampler{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		ring: make([]Sample, 0, cfg.Window),
	}
	s.sample()
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// sample appends one observation, deriving the backlog gauge from
// the previous sample.
func (s *Sampler) sample() { s.sampleAt(time.Now().UnixNano()) }

func (s *Sampler) sampleAt(now int64) {
	snap := s.cfg.Source()
	s.mu.Lock()
	defer s.mu.Unlock()
	sm := Sample{UnixNs: now, Snap: snap}
	if prev, ok := s.lastLocked(); ok && s.cfg.TargetOpsPerSec > 0 {
		var dOps int64
		if snap.Lat != nil && prev.Snap.Lat != nil {
			dOps = snap.Lat.Op.Count - prev.Snap.Lat.Op.Count
		}
		started := prev.Backlog > 0 || (prev.Snap.Lat != nil && prev.Snap.Lat.Op.Count > 0)
		if started {
			dt := float64(now-prev.UnixNs) / 1e9
			sm.Backlog = prev.Backlog + s.cfg.TargetOpsPerSec*dt - float64(dOps)
			if sm.Backlog < 0 {
				sm.Backlog = 0
			}
		}
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sm)
	} else {
		s.ring[s.n%uint64(len(s.ring))] = sm
	}
	s.n++
}

func (s *Sampler) lastLocked() (Sample, bool) {
	if s.n == 0 {
		return Sample{}, false
	}
	return s.ring[(s.n-1)%uint64(cap(s.ring))], true
}

// Stop takes a final sample and halts the goroutine. Idempotent and
// nil-safe.
func (s *Sampler) Stop() {
	if s == nil || !s.stopped.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	<-s.done
	s.sample()
}

// Node returns the configured node label, or -1 on a nil sampler.
func (s *Sampler) Node() int32 {
	if s == nil {
		return -1
	}
	return s.cfg.Node
}

// Samples returns the retained window, oldest first. Nil-safe.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	start := uint64(0)
	if s.n > uint64(len(s.ring)) {
		start = s.n - uint64(len(s.ring))
	}
	for i := start; i < s.n; i++ {
		out = append(out, s.ring[i%uint64(cap(s.ring))])
	}
	return out
}

// Window is the derived view over the retained samples: rates are
// computed over the full retained span, quantiles and SLO attainment
// over the window's histogram delta, and Counters carries the latest
// cumulative values (the exposition's source of truth).
type Window struct {
	Node    int32   `json:"node"`
	Samples int     `json:"samples"`
	SpanMs  float64 `json:"span_ms"`

	MsgsPerSec   float64 `json:"msgs_per_sec"`
	BytesPerSec  float64 `json:"bytes_per_sec"`
	FaultsPerSec float64 `json:"faults_per_sec"`
	OpsPerSec    float64 `json:"ops_per_sec"`

	Backlog       float64 `json:"backlog"`
	ChaosInjected int64   `json:"chaos_injected"` // drops + duplicates observed so far
	SLOTargetUs   float64 `json:"slo_target_us"`
	SLOAttainment float64 `json:"slo_attainment"` // fraction of windowed op samples under target

	OpP50Us  float64 `json:"op_p50_us"`
	OpP99Us  float64 `json:"op_p99_us"`
	OpP999Us float64 `json:"op_p999_us"`

	Counters map[string]int64 `json:"counters"`
}

// Window derives the current windowed view. A nil sampler returns a
// zero Window (Samples 0), which renders as "sampler off".
func (s *Sampler) Window() Window {
	if s == nil {
		return Window{Node: -1}
	}
	samples := s.Samples()
	w := Window{Node: s.cfg.Node, Samples: len(samples), SLOTargetUs: float64(s.cfg.SLOTarget.Microseconds())}
	if len(samples) == 0 {
		return w
	}
	first, last := samples[0], samples[len(samples)-1]
	w.Backlog = last.Backlog
	w.ChaosInjected = last.Snap.MsgsDropped + last.Snap.MsgsDuplicated
	w.Counters = last.Snap.Map()
	span := time.Duration(last.UnixNs - first.UnixNs)
	w.SpanMs = float64(span.Microseconds()) / 1000
	if span <= 0 {
		w.SLOAttainment = 1
		return w
	}
	d := last.Snap.Sub(first.Snap)
	sec := span.Seconds()
	w.MsgsPerSec = float64(d.MsgsSent) / sec
	w.BytesPerSec = float64(d.BytesSent) / sec
	w.FaultsPerSec = float64(d.Faults()) / sec
	w.SLOAttainment = 1
	if d.Lat != nil {
		op := d.Lat.Op
		w.OpsPerSec = float64(op.Count) / sec
		w.OpP50Us = float64(op.Quantile(0.5)) / 1e3
		w.OpP99Us = float64(op.Quantile(0.99)) / 1e3
		w.OpP999Us = float64(op.Quantile(0.999)) / 1e3
		w.SLOAttainment = op.FractionBelow(s.cfg.SLOTarget.Nanoseconds())
	}
	return w
}

// Reconcile checks the sampler's bookkeeping against a final
// snapshot: the sum of per-window deltas must equal the last sample
// minus the first retained sample, and the last sample must match
// the final counters field-for-field (call after Stop). It returns
// the mismatching field names (empty means reconciled). Nil-safe: a
// nil sampler reconciles trivially.
func (s *Sampler) Reconcile(final stats.Snapshot) []string {
	if s == nil {
		return nil
	}
	samples := s.Samples()
	if len(samples) == 0 {
		return []string{"(no samples)"}
	}
	var bad []string
	// Window deltas telescope: summing them must recover last-first
	// exactly, field by field.
	var acc stats.Snapshot
	for i := 1; i < len(samples); i++ {
		acc = acc.Add(samples[i].Snap.Sub(samples[i-1].Snap))
	}
	want := samples[len(samples)-1].Snap.Sub(samples[0].Snap)
	accF, wantF := acc.Fields(), want.Fields()
	for i := range accF {
		if accF[i].Value != wantF[i].Value {
			bad = append(bad, "window:"+accF[i].Name)
		}
	}
	// The final sample is the final truth.
	lastF, finalF := samples[len(samples)-1].Snap.Fields(), final.Fields()
	for i := range lastF {
		if lastF[i].Value != finalF[i].Value {
			bad = append(bad, "final:"+lastF[i].Name)
		}
	}
	return bad
}

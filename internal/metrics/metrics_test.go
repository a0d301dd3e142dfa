package metrics

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeSource is a controllable counter source.
type fakeSource struct {
	msgs  atomic.Int64
	reads atomic.Int64
	lat   *stats.LatHists
}

func (f *fakeSource) snapshot() stats.Snapshot {
	var n stats.Node
	n.MsgsSent.Store(f.msgs.Load())
	n.Reads.Store(f.reads.Load())
	n.Lat = f.lat
	return n.Snapshot()
}

// The sampler's windowed view must recover rates and quantiles from
// the deltas between samples, and Reconcile must telescope exactly.
func TestSamplerWindowAndReconcile(t *testing.T) {
	src := &fakeSource{lat: &stats.LatHists{}}
	s := Start(Config{
		Node:     2,
		Interval: 5 * time.Millisecond,
		Source:   src.snapshot,
		// 1ms SLO target: the 100us ops below all meet it.
		SLOTarget: time.Millisecond,
	})
	for i := 0; i < 20; i++ {
		src.msgs.Add(10)
		src.lat.Op.Observe(100_000) // 100us
		time.Sleep(3 * time.Millisecond)
	}
	s.Stop()
	final := src.snapshot()
	if bad := s.Reconcile(final); len(bad) != 0 {
		t.Fatalf("reconcile mismatches: %v", bad)
	}
	w := s.Window()
	if w.Node != 2 {
		t.Fatalf("window node = %d, want 2", w.Node)
	}
	if w.Samples < 3 {
		t.Fatalf("only %d samples retained", w.Samples)
	}
	if w.MsgsPerSec <= 0 || w.OpsPerSec <= 0 {
		t.Fatalf("windowed rates not derived: msgs/s=%v ops/s=%v", w.MsgsPerSec, w.OpsPerSec)
	}
	if w.OpP50Us < 50 || w.OpP50Us > 200 {
		t.Fatalf("op p50 = %vus, want ~100us", w.OpP50Us)
	}
	if w.SLOAttainment != 1 {
		t.Fatalf("SLO attainment = %v, want 1 (every op under 1ms)", w.SLOAttainment)
	}
	if w.Counters["msgs_sent"] != 200 {
		t.Fatalf("final counters wrong: %v", w.Counters["msgs_sent"])
	}
}

// A source whose counters move after Stop must fail reconciliation —
// that is the contract that makes E16's parity assertion meaningful.
func TestReconcileCatchesDrift(t *testing.T) {
	src := &fakeSource{}
	s := Start(Config{Interval: time.Hour, Source: src.snapshot})
	s.Stop()
	src.msgs.Add(5)
	if bad := s.Reconcile(src.snapshot()); len(bad) == 0 {
		t.Fatal("reconcile missed a post-stop counter change")
	}
}

// The ring must retain only the last Window samples, oldest first.
func TestSamplerRingOverwrite(t *testing.T) {
	src := &fakeSource{}
	s := &Sampler{cfg: Config{Window: 4, Source: src.snapshot}, ring: make([]Sample, 0, 4)}
	for i := 0; i < 10; i++ {
		src.msgs.Store(int64(i))
		s.sample()
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	for i, sm := range got {
		if want := int64(6 + i); sm.Snap.MsgsSent != want {
			t.Fatalf("sample %d has msgs=%d, want %d (oldest-first window)", i, sm.Snap.MsgsSent, want)
		}
	}
}

// The derived backlog gauge follows the queue law: target*dt issued,
// completed ops drained, clamped at zero, and only accumulating once
// ops have started.
func TestSamplerBacklogDerivation(t *testing.T) {
	src := &fakeSource{lat: &stats.LatHists{}}
	s := &Sampler{cfg: Config{Window: 64, Source: src.snapshot, TargetOpsPerSec: 1000}, ring: make([]Sample, 0, 64)}
	base := time.Now().UnixNano()
	at := func(i int) int64 { return base + int64(i)*10_000_000 } // 10ms-spaced
	s.sampleAt(at(0))
	// No ops yet: schedule has not started, backlog stays zero.
	s.sampleAt(at(1))
	if got := s.Samples()[1].Backlog; got != 0 {
		t.Fatalf("backlog %v before first op, want 0 (schedule not started)", got)
	}
	// First op lands: next window starts billing the schedule.
	src.lat.Op.Observe(1000)
	s.sampleAt(at(2))
	// 10ms at 1000 ops/s issues 10 ops; 2 complete → backlog 8.
	for i := 0; i < 2; i++ {
		src.lat.Op.Observe(1000)
	}
	s.sampleAt(at(3))
	if got := s.Samples()[3].Backlog; got < 7.5 || got > 8.5 {
		t.Fatalf("backlog = %v, want ~8 (10 issued, 2 done)", got)
	}
	// A fast drain clamps at zero rather than going negative.
	for i := 0; i < 100; i++ {
		src.lat.Op.Observe(1000)
	}
	s.sampleAt(at(4))
	if got := s.Samples()[4].Backlog; got != 0 {
		t.Fatalf("backlog = %v after drain, want 0 (clamped)", got)
	}
}

// The /metrics exposition must parse under the strict parser, carry
// every counter family, histogram invariants, and the gauges.
func TestPromExpositionRoundTrip(t *testing.T) {
	src := &fakeSource{lat: &stats.LatHists{}}
	src.msgs.Store(42)
	for i := 0; i < 100; i++ {
		src.lat.Op.Observe(int64(i+1) * 1000)
	}
	s := Start(Config{Node: 1, Interval: time.Hour, Source: src.snapshot})
	defer s.Stop()
	srv := httptest.NewServer(s.PromHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if got := samples[`dsm_msgs_sent_total{node="1"}`]; got != 42 {
		t.Fatalf("msgs_sent sample = %v, want 42", got)
	}
	if got := samples[`dsm_op_latency_seconds_count{node="1"}`]; got != 100 {
		t.Fatalf("op histogram count = %v, want 100", got)
	}
	if inf := samples[`dsm_op_latency_seconds_bucket{node="1",le="+Inf"}`]; inf != 100 {
		t.Fatalf("+Inf bucket = %v, want 100", inf)
	}
	names := MetricNames(samples)
	joined := strings.Join(names, " ")
	for _, want := range []string{"dsm_msgs_per_second", "dsm_slo_attainment", "dsm_backlog_ops", "dsm_op_latency_seconds_bucket"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("exposition missing family %s in %v", want, names)
		}
	}
	// Every counter in the field plan has a family.
	for _, f := range (stats.Snapshot{}).Fields() {
		if !strings.Contains(joined, "dsm_"+f.Name+"_total") {
			t.Fatalf("counter %s missing from exposition", f.Name)
		}
	}
	// Histogram buckets are cumulative (monotone in le).
	var prev float64 = -1
	for _, le := range []string{`1.024e-06`, `+Inf`} {
		v, ok := samples[`dsm_op_latency_seconds_bucket{node="1",le="`+le+`"}`]
		if ok && v < prev {
			t.Fatalf("bucket le=%s not cumulative: %v < %v", le, v, prev)
		}
		if ok {
			prev = v
		}
	}
}

// The strict parser must reject the malformed shapes it exists to
// catch.
func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"dsm_x 1\n",                                // no preceding TYPE
		"# TYPE dsm_x counter\ndsm_x one\n",        // non-numeric value
		"# TYPE dsm_x counter\ndsm_x{node=\"0 1\n", // unterminated label block
		"# TYPE dsm_x widget\ndsm_x 1\n",           // unknown type
		"# TYPE dsm_x counter\ndsm_x 1\ndsm_x 1\n", // duplicate sample
		"# TYPE dsm_x counter\n{node=\"0\"} 1\n",   // missing name
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Fatalf("parser accepted %q", bad)
		}
	}
}

// Flight bundles must round-trip through disk and render with the
// stall evidence intact; a second Dump must not overwrite the first.
func TestFlightBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{lat: &stats.LatHists{}}
	s := Start(Config{Node: 0, Interval: time.Millisecond, Source: src.snapshot})
	for i := 0; i < 5; i++ {
		src.msgs.Add(3)
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	tr := trace.New(0, 2, 64)
	tr.Emit(trace.EvSend, 1, 7, -1, -1, 0, 0)
	rec := &Recorder{
		Dir: dir, Node: 0, Digest: 0xdeadbeef,
		Meta:    map[string]string{"app": "kvstore", "protocol": "lrc"},
		Sampler: s,
		Streams: func() []trace.Stream { return []trace.Stream{tr.Stream()} },
	}
	path, err := rec.Dump("core: watchdog: no message progress for 1s with 2 requests in flight\n  node 1: pending: lock-req to 0")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := rec.Dump("second"); again != path {
		t.Fatalf("second Dump wrote %q, want first path %q", again, path)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d bundle files, want 1", len(entries))
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Node != 0 || b.ConfigDigest != "00000000deadbeef" || len(b.Samples) < 2 || len(b.Traces) != 1 {
		t.Fatalf("bundle lost content: %+v", b)
	}
	var out strings.Builder
	if err := WriteFlightReport(&out, b); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"lock-req to 0", "watchdog", "app: kvstore", "sample window", "goroutines at capture", "send"} {
		if !strings.Contains(got, want) {
			t.Fatalf("flight report missing %q:\n%s", want, got)
		}
	}
	if _, err := LoadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing bundle loaded")
	}
}

// The dashboard renderer: live endpoints produce per-node rows plus
// the aggregate; a dead endpoint degrades to an error row without
// hiding the others.
func TestWatchRendersRows(t *testing.T) {
	src := &fakeSource{lat: &stats.LatHists{}}
	src.msgs.Store(9)
	s := Start(Config{Node: 3, Interval: time.Hour, Source: src.snapshot})
	defer s.Stop()
	srv := httptest.NewServer(s.JSONHandler())
	defer srv.Close()
	ep := strings.TrimPrefix(srv.URL, "http://")
	var out strings.Builder
	if err := Watch(&out, []string{ep, "127.0.0.1:1"}, WatchOpts{Rounds: 2, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "dsmrun -watch —") != 2 {
		t.Fatalf("want 2 rounds:\n%s", got)
	}
	for _, want := range []string{"node", "qps", "p999_us", "total", "127.0.0.1:1", "err"} {
		if !strings.Contains(got, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, got)
		}
	}
	// The live row made it despite the dead peer.
	if !strings.Contains(got, "3") {
		t.Fatalf("live node row missing:\n%s", got)
	}
	if err := Watch(&out, nil, WatchOpts{}); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
}

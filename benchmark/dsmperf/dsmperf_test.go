package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted   []int64
		permille int
		want     int64
	}{
		{nil, 900, 0},
		{[]int64{7}, 500, 7},
		{[]int64{7}, 999, 7},
		{ten, 500, 5},  // 5 of 10 samples are at or below the 5th
		{ten, 900, 9},  // exactly one sample lies beyond the p90
		{ten, 901, 10}, // 9 samples are not 90.1 %
		{ten, 990, 10},
		{ten, 1, 1},
		{[]int64{3, 3, 3, 3, 9}, 800, 3}, // ties: the value, whichever index
		{[]int64{3, 3, 3, 3, 9}, 801, 9},
	} {
		if got := percentile(c.sorted, c.permille); got != c.want {
			t.Errorf("percentile(%v, %d) = %d, want %d", c.sorted, c.permille, got, c.want)
		}
	}
	// 1000 samples: p999 leaves exactly one beyond it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i)
	}
	if got := percentile(big, 999); got != 998 {
		t.Errorf("p999 of 0..999 = %d, want 998", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles of 1..10 = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{1, 2, 4}); got != [3]float64{1, 2, 4} {
		t.Errorf("quartiles of [1 2 4] = %v", got)
	}
}

func TestWindowLatenciesAndThroughput(t *testing.T) {
	w := &window{ends: [][]int64{
		{int64(400 * time.Millisecond), int64(900 * time.Millisecond), int64(1500 * time.Millisecond), int64(2100 * time.Millisecond)},
		{int64(1 * time.Second), int64(1999 * time.Millisecond)},
	}}
	lat := w.latencies(nil)
	want := []int64{int64(400 * time.Millisecond), int64(500 * time.Millisecond), int64(600 * time.Millisecond),
		int64(600 * time.Millisecond), int64(999 * time.Millisecond), int64(1 * time.Second)}
	if len(lat) != len(want) {
		t.Fatalf("latencies = %v", lat)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Fatalf("latencies = %v, want %v", lat, want)
		}
	}
}

func TestThroughputIsTheP90OfSliceRates(t *testing.T) {
	// Ten slices of 250 ms: slice k gets k+1 ops, and one op lands past
	// the 2.5 s window (timed, but in no slice).
	var ends []int64
	for k := 0; k < 10; k++ {
		for i := 0; i <= k; i++ {
			ends = append(ends, int64(k)*int64(sliceWidth)+int64(i+1)*int64(time.Millisecond))
		}
	}
	ends = append(ends, int64(2600*time.Millisecond))
	w := &window{ends: [][]int64{ends}}
	p90, mean := w.throughput(2500 * time.Millisecond)
	if p90 != 9/0.25 { // the 9th of the 10 sorted slice counts
		t.Errorf("p90 rate = %v, want 36", p90)
	}
	if mean != 55/2.5 {
		t.Errorf("mean rate = %v, want 22", mean)
	}
	// The gated number is the percentile, or the mean on a workload
	// that waits.
	r := &result{win: w, d: 2500 * time.Millisecond}
	if got := r.opsPerS(); got != p90 {
		t.Errorf("opsPerS = %v, want the p90 %v", got, p90)
	}
	r.waits = true
	if got := r.opsPerS(); got != mean {
		t.Errorf("opsPerS of a waiting workload = %v, want the mean %v", got, mean)
	}
	// A window shorter than a slice is one slice.
	if p90, mean := w.throughput(100 * time.Millisecond); p90 != 10 || mean != 10 {
		t.Errorf("100 ms window: p90 %v mean %v, want 10 10", p90, mean)
	}
}

func TestCounterMetricsAreWindowDeltasPerOp(t *testing.T) {
	var n stats.Node
	n.MsgsSent.Add(1000)
	n.Retries.Add(5)
	n.LockWaitNs.Add(1_000_000)
	before := n.Snapshot()
	n.MsgsSent.Add(300)
	n.BytesSent.Add(6400)
	n.LockWaitNs.Add(2_000_000)
	n.ReadFaults.Add(50)
	v := counterMetrics(n.Snapshot().Sub(before), 100)
	for name, want := range map[string]float64{
		"transport.msgs_per_op":       3,
		"transport.bytes_per_op":      64,
		"nodecore.retries_per_op":     0, // the 5 happened before the window
		"dsync.lock_wait_us_per_op":   20,
		"nodecore.read_faults_per_op": 0.5,
	} {
		if got := v[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// The names the binary prints and the names BENCHMARK.json declares
// must not drift apart.
func TestNamesMatchSpec(t *testing.T) {
	s := readSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	ws := workloads()
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		check(w.name)
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, s.Workloads[i].Name, w.name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.name)
		if got := s.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the binary", i, got, m)
		}
		if b := s.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, b)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if got := s.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the binary", i, got, m)
		}
	}
}

var smoke = options{seed: 3, seconds: 0.3, smoke: true}

// Every workload at smoke scale, result check included: the printed
// metrics are exactly the declared ones, nothing fails, and counters
// that must be zero on a fault-free network are.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		out, err := runEndToEnd(io.Discard, w, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, out.Correct, out.Attempted, out.Failed)
		}
		if len(out.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(out.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := out.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v", w.name, m.name, v)
			}
		}
	}
}

// One traced pass: every per-layer name gets a value, the ladder
// included, and the traced rows are filled from the traced window.
func TestSmokeTraced(t *testing.T) {
	w, err := workloadByName("kv_read_sim")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTraced(io.Discard, w, smoke)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Errorf("correct=%v failed=%d", out.Correct, out.Failed)
	}
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(out.Metrics), len(perLayer))
	}
	for _, name := range []string{
		"driver.samples", "kv.get_p50_us", "kv.self_us_per_op", "dsync.lock_acquires_per_op",
		"dsync.lock_wait_us_p50", "nodecore.rpc_us_p50", "transport.msgs_per_op",
		"mem.split_ns", "tcp.oneway_us", "core.read_hit_ns", "dsync.barrier_us.n4", "proto.lrc.read_fault_us",
	} {
		if v := out.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v := out.Metrics["nodecore.retries_per_op"].Value; v != 0 {
		t.Errorf("nodecore.retries_per_op = %v on a fault-free simulator", v)
	}
}

// The oracle must notice a wrong result: an op the streams do not
// account for on the kv store, a half-sweep too many on the grid.
func TestCheckCatchesWrongResult(t *testing.T) {
	for _, name := range []string{"kv_read_sim", "sor_sc_sim"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.scaled(smoke)
		b, ld, err := setUp(w, smoke)
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.check(b); err != nil {
			t.Errorf("%s: check after warm-up: %v", name, err)
		}
		switch ld := ld.(type) {
		case *kvLoad:
			if err := ld.stores[0].Put(b.nodes[0], 0, 42, make([]byte, slotBuf)); err != nil {
				t.Fatal(err)
			}
		case *sorLoad:
			ld.done++
		}
		if err := ld.check(b); err == nil {
			t.Errorf("%s: check passed on a wrong result", name)
		}
		b.close()
	}
}

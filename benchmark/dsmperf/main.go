// Command dsmperf is the repository's end-to-end benchmark: four
// fixed workloads over the public API of the DSM (core, kv, loadgen,
// the two transports), each a closed loop of two clients, timed for a
// fixed window, checked against an oracle that is not the code under
// test. benchmark/README.md records why each workload exists and what
// every metric should move; BENCHMARK.json declares the names.
//
//	go run ./benchmark/dsmperf -workload kv_read_sim -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object: with -trace 0
// the end-to-end metrics, with -trace 1 the per-layer metrics (an
// untraced and a traced window of half the time each, then the layer
// ladder). Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stats"
)

// setUps is how many times an untraced run sets the workload up; it
// reports the median set-up time and measures on the last bed.
const setUps = 3

// ballast is a pointer-free block the driver keeps live. Without it
// the SOR run's live heap is about 1 MB, the collector runs at its
// 4 MB minimum heap — over a hundred cycles a second at this
// allocation rate — and the number measures the fixed cost of a GC
// cycle (thread wake-ups the hypervisor makes slow and erratic), not
// the DSM. With it every workload collects at the rate its own
// allocation sets over a heap of a realistic size. Never touched, so
// it costs address space only.
var ballast = make([]byte, 64<<20)

type options struct {
	seed    int64
	seconds float64
	smoke   bool
}

func main() {
	var (
		o      options
		name   = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		trace  = flag.Int("trace", 0, "1: print the per-layer metrics (untraced + traced window, then the layer ladder)")
		repeat = flag.Int("repeat", 0, "run the workload N times and print the noise report instead of one result")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op streams and of the fault plan")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed window")
	flag.BoolVar(&o.smoke, "smoke", false, "about 1/50 of the size, for tests")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (o.seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() != 0) {
		err = fmt.Errorf("need -seconds > 0, -trace 0 or 1 and no other arguments")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmperf:", err)
		os.Exit(2)
	}
	var out *output
	switch {
	case *repeat > 0:
		err = noiseReport(os.Stdout, w, o, *repeat)
	case *trace == 1:
		out, err = runTraced(os.Stderr, w, o)
	default:
		out, err = runEndToEnd(os.Stderr, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmperf:", err)
		os.Exit(1)
	}
	if out != nil {
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dsmperf:", err)
			os.Exit(1)
		}
		if !out.Correct {
			os.Exit(1)
		}
	}
}

// output is the result line the benchmark contract fixes.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pack attaches each declared metric's unit to its value; a declared
// name without a value is a bug in this program.
func pack(decl []metric, values map[string]float64) map[string]value {
	out := make(map[string]value, len(decl))
	for _, m := range decl {
		v, ok := values[m.name]
		if !ok {
			panic("dsmperf: no value computed for declared metric " + m.name)
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

// result is one set-up, one timed window and its check.
type result struct {
	win      *window
	d        time.Duration // nominal window
	waits    bool          // the workload's waits flag
	setups   []float64     // seconds, one per set-up
	delta    stats.Snapshot
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	heapEnd  float64 // MB live after a forced GC, driver buffers excluded
	calibNs  int64
	checkErr error
}

// hostCalib times a fixed pure-CPU loop. It gates nothing: it shows
// how fast the host was just before the window, so that drift between
// runs can be told from a change in the program.
func hostCalib() int64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		panic("unreachable: xorshift has no zero state")
	}
	return time.Since(t0).Nanoseconds()
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only an invalid argument fails; the metric reads 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w workload) scaled(o options) workload {
	w.cfg.Seed = o.seed
	if o.smoke {
		w.warmOps = max(w.warmOps/50, 10)
	}
	return w
}

// setUp builds a bed, prepares the load on it and warms it up.
func setUp(w workload, o options) (*bed, load, error) {
	b, err := newBed(w.cfg, w.overTCP)
	if err != nil {
		return nil, nil, err
	}
	ld := w.newLoad(o.seed, o.seconds)
	if err := ld.prepare(b); err != nil {
		b.close()
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	if err := ld.warm(b); err != nil {
		b.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, ld, nil
}

// runOnce sets the workload up n times, measures one window of
// o.seconds on the last bed and checks its result.
func runOnce(w workload, o options, traced bool, n int) (*result, error) {
	w = w.scaled(o)
	w.cfg.EventTrace = traced
	r := &result{d: time.Duration(o.seconds * float64(time.Second)), waits: w.waits}
	var (
		b  *bed
		ld load
	)
	for i := 0; i < n; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, ld, err = setUp(w, o); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer b.close()

	runtime.GC() // earlier beds are garbage now; start every window from a collected heap
	r.calibNs = hostCalib()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, s0 := cpuTime(), b.snapshot()
	win, err := ld.measure(b, r.d, traced)
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	r.delta, r.cpu = b.snapshot().Sub(s0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	r.win = win
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapEnd = (float64(m1.HeapAlloc) - float64(win.driverBytes()) - float64(len(ballast))) / (1 << 20)
	r.checkErr = ld.check(b)
	return r, nil
}

// opsPerS is the gated throughput of the window: the 90th percentile
// of the slice rates, or the plain mean on a workload that waits.
func (r *result) opsPerS() float64 {
	p90, mean := r.win.throughput(r.d)
	if r.waits {
		return mean
	}
	return p90
}

// endToEndValues are the three gated numbers of one run.
func (r *result) endToEndValues() map[string]float64 {
	return map[string]float64{
		"ops_per_s": r.opsPerS(),
		"op_p90_us": us(float64(percentile(r.win.latencies(nil), 900))),
		"setup_s":   median(r.setups),
	}
}

// describe prints the human-readable account of one run.
func (r *result) describe(log io.Writer, w workload, o options, label string) {
	all := r.win.latencies(nil)
	pct := func(permille int) float64 { return us(float64(percentile(all, permille))) }
	fmt.Fprintf(log, "%s %s seed=%d GOMAXPROCS=%d window=%v ops_attempted=%d ops_failed=%d samples=%d\n",
		w.name, label, o.seed, runtime.GOMAXPROCS(0), r.d, r.win.ops, r.win.failed, len(all))
	_, mean := r.win.throughput(r.d)
	fmt.Fprintf(log, "  ops_per_s=%.1f (window mean %.1f) op_p50_us=%.1f op_p90_us=%.1f op_p99_us=%.1f op_p999_us=%.1f\n",
		r.opsPerS(), mean, pct(500), pct(900), pct(990), pct(999))
	fmt.Fprintf(log, "  setup_s=%.3f of %.3f; host_calib=%.1fms msgs/op=%.3f retries=%d heap_end=%.1fMB gc_pause=%.1fms\n",
		median(r.setups), r.setups, float64(r.calibNs)/1e6, perOp(r.delta.MsgsSent, r.win.ops),
		r.delta.Retries, r.heapEnd, float64(r.gcPause)/1e6)
	if r.checkErr != nil {
		fmt.Fprintf(log, "  check: \"failed\": %v\n", r.checkErr)
	} else {
		fmt.Fprintf(log, "  check: \"ok\"\n")
	}
}

func runEndToEnd(log io.Writer, w workload, o options) (*output, error) {
	n := setUps
	if o.smoke {
		n = 1
	}
	r, err := runOnce(w, o, false, n)
	if err != nil {
		return nil, err
	}
	r.describe(log, w, o, "untraced")
	return &output{
		Correct:   r.checkErr == nil && r.win.failed == 0,
		Attempted: r.win.ops,
		Failed:    r.win.failed,
		Metrics:   pack(endToEnd, r.endToEndValues()),
	}, nil
}

// runTraced fills the per-layer table: an untraced window for the
// counters and the driver's view, the same workload again with
// EventTrace on for the spans and latency histograms, then the ladder.
func runTraced(log io.Writer, w workload, o options) (*output, error) {
	o.seconds /= 2
	u, err := runOnce(w, o, false, 1)
	if err != nil {
		return nil, err
	}
	u.describe(log, w, o, "untraced")
	t, err := runOnce(w, o, true, 1)
	if err != nil {
		return nil, err
	}
	t.describe(log, w, o, "traced")
	rungs, err := ladder(o.smoke)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	values := perLayerValues(u, t)
	for name, v := range rungs {
		values[name] = v
	}
	return &output{
		Correct:   u.checkErr == nil && t.checkErr == nil && u.win.failed+t.win.failed == 0,
		Attempted: u.win.ops + t.win.ops,
		Failed:    u.win.failed + t.win.failed,
		Metrics:   pack(perLayer, values),
	}, nil
}

// perLayerValues computes every per-layer row except the ladder from
// an untraced result u and a traced result t of the same workload.
func perLayerValues(u, t *result) map[string]float64 {
	ops := u.win.ops
	v := counterMetrics(u.delta, ops)
	all := u.win.latencies(nil)
	pct := func(sorted []int64, permille int) float64 { return us(float64(percentile(sorted, permille))) }
	v["driver.op_p50_us"] = pct(all, 500)
	v["driver.op_p99_us"] = pct(all, 990)
	v["driver.op_p999_us"] = pct(all, 999)
	v["driver.samples"] = float64(len(all))
	v["driver.cpu_us_per_op"] = us(perOp(u.cpu.Nanoseconds(), ops))
	v["driver.allocs_per_op"] = perOp(int64(u.mallocs), ops)
	v["driver.gc_pause_ms"] = float64(u.gcPause) / 1e6
	v["driver.heap_mb_end"] = u.heapEnd
	v["driver.host_calib_ns"] = float64(u.calibNs)

	// Spans: the benchmark's own clock readings around its calls into
	// kv.Store, the SOR row loop and Node.Barrier.
	var opNs, rowNs, barNs int64
	for c, ends := range t.win.ends {
		prev := int64(0)
		for i, e := range ends {
			opNs += e - prev
			if t.win.mids != nil {
				rowNs += t.win.mids[c][i] - prev
				barNs += e - t.win.mids[c][i]
			}
			prev = e
		}
	}
	lat := t.delta.Lat // non-nil: t ran with EventTrace
	v["kv.self_us_per_op"], v["core.access_ns"], v["dsync.barrier_us_per_op"] = 0, 0, 0
	if u.win.kinds != nil {
		isGet := func(c, i int) bool {
			return u.win.kinds[c][(u.win.first[c]+i)%len(u.win.kinds[c])].Kind == loadgen.Get
		}
		gets := u.win.latencies(isGet)
		puts := u.win.latencies(func(c, i int) bool { return !isGet(c, i) })
		v["kv.get_p50_us"], v["kv.get_p90_us"] = pct(gets, 500), pct(gets, 900)
		v["kv.put_p50_us"], v["kv.put_p90_us"] = pct(puts, 500), pct(puts, 900)
		// A kv op's self time: its span minus the lock waits and page
		// faults (the child spans the program already times) inside it.
		v["kv.self_us_per_op"] = us(perOp(opNs-lat.LockWait.SumNs-lat.Fault.SumNs, t.win.ops))
	} else {
		v["kv.get_p50_us"], v["kv.get_p90_us"], v["kv.put_p50_us"], v["kv.put_p90_us"] = 0, 0, 0, 0
		v["core.access_ns"] = float64(rowNs) / float64(t.win.ops*t.win.accessesPerOp)
		v["dsync.barrier_us_per_op"] = us(perOp(barNs, t.win.ops))
	}
	q := func(h stats.HistSnapshot, p float64) float64 { return us(float64(h.Quantile(p))) }
	v["nodecore.fault_us_p50"], v["nodecore.fault_us_p90"] = q(lat.Fault, 0.5), q(lat.Fault, 0.9)
	v["nodecore.rpc_us_p50"], v["nodecore.rpc_us_p90"] = q(lat.RPC, 0.5), q(lat.RPC, 0.9)
	v["dsync.lock_wait_us_p50"], v["dsync.lock_wait_us_p90"] = q(lat.LockWait, 0.5), q(lat.LockWait, 0.9)

	v["trace.overhead_frac"] = 1 - t.opsPerS()/u.opsPerS()
	return v
}

package main

import (
	"slices"
	"time"
	"unsafe"

	"repro/internal/loadgen"
	"repro/internal/stats"
)

// metric is one declared number: BENCHMARK.json lists the same names,
// units and directions (TestNamesMatchSpec keeps the two equal).
type metric struct {
	name, unit, better string
}

var endToEnd = []metric{
	{"ops_per_s", "1/s", "higher"},
	{"op_p90_us", "us", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metric{
	// driver: context for every other row.
	{"driver.op_p50_us", "us", "lower"},
	{"driver.op_p99_us", "us", "lower"},
	{"driver.op_p999_us", "us", "lower"},
	{"driver.samples", "count", "higher"},
	{"driver.cpu_us_per_op", "us/op", "lower"},
	{"driver.allocs_per_op", "1/op", "lower"},
	{"driver.gc_pause_ms", "ms", "lower"},
	{"driver.heap_mb_end", "MB", "lower"},
	{"driver.host_calib_ns", "ns", "lower"},
	// kv: timed Store calls by kind; self time from the traced run.
	{"kv.get_p50_us", "us", "lower"},
	{"kv.get_p90_us", "us", "lower"},
	{"kv.put_p50_us", "us", "lower"},
	{"kv.put_p90_us", "us", "lower"},
	{"kv.self_us_per_op", "us/op", "lower"},
	// core / nodecore: the access path.
	{"nodecore.reads_per_op", "1/op", "lower"},
	{"nodecore.writes_per_op", "1/op", "lower"},
	{"nodecore.read_faults_per_op", "1/op", "lower"},
	{"nodecore.write_faults_per_op", "1/op", "lower"},
	{"core.access_ns", "ns", "lower"},
	{"nodecore.fault_us_p50", "us", "lower"},
	{"nodecore.fault_us_p90", "us", "lower"},
	// nodecore: RPC and the reliability layer.
	{"nodecore.retries_per_op", "1/op", "lower"},
	{"nodecore.dup_requests_per_op", "1/op", "lower"},
	{"nodecore.cached_replies_per_op", "1/op", "lower"},
	{"nodecore.late_replies_per_op", "1/op", "lower"},
	{"nodecore.rpc_us_p50", "us", "lower"},
	{"nodecore.rpc_us_p90", "us", "lower"},
	// dsync.
	{"dsync.lock_acquires_per_op", "1/op", "lower"},
	{"dsync.lock_wait_us_per_op", "us/op", "lower"},
	{"dsync.barrier_wait_us_per_op", "us/op", "lower"},
	{"dsync.lock_wait_us_p50", "us", "lower"},
	{"dsync.lock_wait_us_p90", "us", "lower"},
	{"dsync.barrier_us_per_op", "us/op", "lower"},
	// proto.
	{"proto.page_transfers_per_op", "1/op", "lower"},
	{"proto.invalidations_per_op", "1/op", "lower"},
	{"proto.forwards_per_op", "1/op", "lower"},
	{"proto.twins_per_op", "1/op", "lower"},
	{"proto.diffs_per_op", "1/op", "lower"},
	{"proto.diff_bytes_per_op", "B/op", "lower"},
	{"proto.diff_fetches_per_op", "1/op", "lower"},
	{"proto.write_notices_per_op", "1/op", "lower"},
	{"proto.grant_payload_bytes_per_op", "B/op", "lower"},
	// transport / wire.
	{"transport.msgs_per_op", "1/op", "lower"},
	{"transport.bytes_per_op", "B/op", "lower"},
	{"simnet.dropped_per_op", "1/op", "lower"},
	// observers.
	{"trace.overhead_frac", "ratio", "lower"},
	// The layer ladder (ladder.go).
	{"mem.split_ns", "ns", "lower"},
	{"mem.split_allocs", "1/op", "lower"},
	{"mem.page_read_ns", "ns", "lower"},
	{"mem.diff_create_ns", "ns", "lower"},
	{"mem.diff_apply_ns", "ns", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.batch_pack_ns", "ns", "lower"},
	{"simnet.oneway_us", "us", "lower"},
	{"tcp.oneway_us", "us", "lower"},
	{"core.read_hit_ns", "ns", "lower"},
	{"core.write_hit_ns", "ns", "lower"},
	{"core.read_hit_allocs", "1/op", "lower"},
	{"dsync.lock_local_us", "us", "lower"},
	{"dsync.lock_remote_us.sim", "us", "lower"},
	{"dsync.lock_remote_us.tcp", "us", "lower"},
	{"dsync.lock_handoff_us", "us", "lower"},
	{"dsync.barrier_us.n2", "us", "lower"},
	{"dsync.barrier_us.n4", "us", "lower"},
	{"proto.sc-fixed.read_fault_us", "us", "lower"},
	{"proto.sc-fixed.write_fault_us", "us", "lower"},
	{"proto.erc-invalidate.read_fault_us", "us", "lower"},
	{"proto.erc-invalidate.write_fault_us", "us", "lower"},
	{"proto.lrc.read_fault_us", "us", "lower"},
	{"proto.lrc.write_fault_us", "us", "lower"},
}

// window is what one timed closed loop recorded.
type window struct {
	// ends[c][i] is when client c's i-th op completed, in ns since the
	// window opened. Ops run back to back with one clock reading each,
	// so an op's latency is the gap to the previous completion.
	ends [][]int64
	// mids[c][i] is when the i-th op's row loop ended and its barrier
	// began (traced SOR only): the boundary between the two spans.
	mids [][]int64
	// kinds[c][(first[c]+i)%len] is the kv op behind ends[c][i].
	kinds [][]loadgen.Op
	first [clients]int

	ops, failed   int
	accessesPerOp int // SOR: shared accesses in one op
}

// touched allocates n samples and writes each page, so the window
// takes no first-touch page fault from the driver's own buffer.
func touched(n int) []int64 {
	s := make([]int64, n)
	for i := 0; i < n; i += 256 {
		s[i] = 1
	}
	return s
}

// percentile returns the nearest-rank percentile of sorted samples:
// the smallest sample with at least permille/1000 of the samples at
// or below it. Zero when there are no samples.
func percentile(sorted []int64, permille int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*permille+999)/1000 - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// median of values; the mean of the middle two when the count is even.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// latencies returns every op's latency in ns, sorted; keep filters by
// client and sample index (nil keeps all).
func (w *window) latencies(keep func(c, i int) bool) []int64 {
	var out []int64
	for c, ends := range w.ends {
		prev := int64(0)
		for i, e := range ends {
			if keep == nil || keep(c, i) {
				out = append(out, e-prev)
			}
			prev = e
		}
	}
	slices.Sort(out)
	return out
}

// driverBytes is the size of the driver's own buffers (samples and op
// streams), which the live-heap figure leaves out.
func (w *window) driverBytes() uint64 {
	var n uint64
	for _, s := range w.ends {
		n += 8 * uint64(cap(s))
	}
	for _, s := range w.mids {
		n += 8 * uint64(cap(s))
	}
	for _, s := range w.kinds {
		n += uint64(cap(s)) * uint64(unsafe.Sizeof(loadgen.Op{}))
	}
	return n
}

// sliceWidth is the grain of the throughput estimate.
const sliceWidth = 250 * time.Millisecond

// throughput cuts the nominal window d into slices of sliceWidth,
// counts the ops completing in each, and returns the 90th percentile
// of the slices' rates (ops/s) beside the plain mean. The gated number
// is the percentile: interference from the host is one-sided (it only
// slows the program) and comes in episodes of seconds, so the best
// tenth of the slices shows what the program does when left alone,
// and repeats about twice as well between runs as the mean does. A
// change to the program moves every slice. Each client's last op
// straddles the deadline; it is timed but belongs to no slice.
func (w *window) throughput(d time.Duration) (p90, mean float64) {
	n := max(int(d/sliceWidth), 1)
	width := d / time.Duration(n)
	counts := make([]int64, n)
	total := 0
	for _, ends := range w.ends {
		for _, e := range ends {
			if k := e / int64(width); k < int64(n) {
				counts[k]++
				total++
			}
		}
	}
	slices.Sort(counts)
	return float64(percentile(counts, 900)) / width.Seconds(), float64(total) / d.Seconds()
}

// perOp divides a window counter by the ops of the window.
func perOp(count int64, ops int) float64 { return float64(count) / float64(ops) }

func us(ns float64) float64 { return ns / 1e3 }

// counterMetrics are the per-layer rows that are window deltas of
// stats.Snapshot (summed over nodes) per op.
func counterMetrics(delta stats.Snapshot, ops int) map[string]float64 {
	return map[string]float64{
		"nodecore.reads_per_op":            perOp(delta.Reads, ops),
		"nodecore.writes_per_op":           perOp(delta.Writes, ops),
		"nodecore.read_faults_per_op":      perOp(delta.ReadFaults, ops),
		"nodecore.write_faults_per_op":     perOp(delta.WriteFaults, ops),
		"nodecore.retries_per_op":          perOp(delta.Retries, ops),
		"nodecore.dup_requests_per_op":     perOp(delta.DupRequests, ops),
		"nodecore.cached_replies_per_op":   perOp(delta.CachedReplies, ops),
		"nodecore.late_replies_per_op":     perOp(delta.LateReplies, ops),
		"dsync.lock_acquires_per_op":       perOp(delta.LockAcquires, ops),
		"dsync.lock_wait_us_per_op":        us(perOp(delta.LockWaitNs, ops)),
		"dsync.barrier_wait_us_per_op":     us(perOp(delta.BarrierWaitNs, ops)),
		"proto.page_transfers_per_op":      perOp(delta.PageTransfers, ops),
		"proto.invalidations_per_op":       perOp(delta.Invalidations, ops),
		"proto.forwards_per_op":            perOp(delta.Forwards, ops),
		"proto.twins_per_op":               perOp(delta.TwinCopies, ops),
		"proto.diffs_per_op":               perOp(delta.DiffsCreated, ops),
		"proto.diff_bytes_per_op":          perOp(delta.DiffBytes, ops),
		"proto.diff_fetches_per_op":        perOp(delta.DiffFetches, ops),
		"proto.write_notices_per_op":       perOp(delta.WriteNotices, ops),
		"proto.grant_payload_bytes_per_op": perOp(delta.GrantPayloadBytes, ops),
		"transport.msgs_per_op":            perOp(delta.MsgsSent, ops),
		"transport.bytes_per_op":           perOp(delta.BytesSent, ops),
		"simnet.dropped_per_op":            perOp(delta.MsgsDropped, ops),
	}
}

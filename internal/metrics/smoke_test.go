package metrics_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// holdApp completes its inner workload's share of the work and then
// parks until released — freezing a live TCP cluster at a quiesced
// moment so the debug endpoint can be scraped with the counters
// standing still. That frozen scrape is what makes exact
// /metrics-vs-/stats parity assertable.
type holdApp struct {
	apps.App
	ready   chan int
	release chan struct{}
}

func (h *holdApp) Run(n *core.Node) error {
	if err := h.App.Run(n); err != nil {
		return err
	}
	h.ready <- int(n.ID())
	<-h.release
	return nil
}

func scrapeJSON(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricsSmoke scrapes /metrics from a live TCP cluster: the
// exposition must parse as valid Prometheus text format and its
// counter samples must exactly match the node's /stats counters at
// the same quiesced instant. After the run, every node's sampler must
// reconcile against its final counters.
func TestMetricsSmoke(t *testing.T) {
	const nodes = 3
	ready := make(chan int, nodes)
	release := make(chan struct{})
	var mu sync.Mutex
	addrs := make(map[int]string)
	cfg := core.Config{Nodes: nodes, PageSize: 256, EventTrace: true}
	done := make(chan struct{})
	var res *cluster.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = cluster.Run(cluster.Spec{
			Cfg: cfg, TCP: true,
			App:     func() apps.App { return &holdApp{App: apps.NewSOR(16, 12, 4), ready: ready, release: release} },
			Observe: cluster.Observe{Sample: true, SampleInterval: 20 * time.Millisecond},
			OnDebug: func(node int, addr string) {
				mu.Lock()
				addrs[node] = addr
				mu.Unlock()
			},
		})
	}()
	for i := 0; i < nodes; i++ {
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			t.Fatal("cluster never quiesced")
		}
	}
	// All nodes are parked; give any trailing barrier acks a moment to
	// land, then scrape each node at the frozen instant.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	eps := make(map[int]string, len(addrs))
	for n, a := range addrs {
		eps[n] = a
	}
	mu.Unlock()
	if len(eps) != nodes {
		t.Fatalf("only %d debug endpoints came up", len(eps))
	}
	for node, addr := range eps {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("node %d /metrics does not parse: %v", node, err)
		}
		var st struct {
			Node     int32            `json:"node"`
			Counters map[string]int64 `json:"counters"`
		}
		scrapeJSON(t, addr, "/stats", &st)
		if len(st.Counters) == 0 {
			t.Fatalf("node %d /stats empty", node)
		}
		for name, want := range st.Counters {
			key := fmt.Sprintf("dsm_%s_total{node=\"%d\"}", name, node)
			got, ok := samples[key]
			if !ok {
				t.Fatalf("node %d: %s missing from exposition", node, key)
			}
			if int64(got) != want {
				t.Fatalf("node %d: %s = %v, /stats says %d (cluster was quiesced)", node, key, got, want)
			}
		}
		// The exposition carries the histogram and gauge families too.
		joined := strings.Join(metrics.MetricNames(samples), " ")
		for _, want := range []string{"dsm_fault_latency_seconds_bucket", "dsm_msgs_per_second", "dsm_slo_attainment"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("node %d exposition missing family %s", node, want)
			}
		}
		// The index page advertises the metrics routes.
		idx, err := http.Get("http://" + addr + "/")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(idx.Body)
		idx.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"/metrics\n", "/metrics.json\n"} {
			if !strings.Contains(string(page), want) {
				t.Fatalf("node %d index page missing %q", node, want)
			}
		}
	}
	close(release)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.Samplers) != nodes {
		t.Fatalf("%d samplers in the result, want one per node", len(res.Samplers))
	}
	for i, smp := range res.Samplers {
		if bad := smp.Reconcile(res.Nodes[i]); len(bad) != 0 {
			t.Fatalf("node %d: sampler does not reconcile with final counters: %v", i, bad)
		}
	}
}

// TestFlightOnStall induces a watchdog stall (a lock held forever)
// with the flight recorder armed: the watchdog hook must write a
// bundle whose rendered report names the stalled peer, exactly as
// `dsmtrace -flight` would show it.
func TestFlightOnStall(t *testing.T) {
	dir := t.TempDir()
	var rec *metrics.Recorder
	cfg := core.Config{
		Nodes:           2,
		EventTrace:      true,
		WatchdogTimeout: 300 * time.Millisecond,
		OnStall:         func(report string) { rec.Dump(report) },
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	smp := metrics.Start(metrics.Config{Node: -1, Interval: 20 * time.Millisecond, Source: c.TotalStats})
	defer smp.Stop()
	rec = &metrics.Recorder{
		Dir: dir, Node: -1, Digest: cfg.Digest(),
		Meta:    map[string]string{"app": "stall-test", "transport": "sim"},
		Sampler: smp,
		Streams: c.TraceStreams,
	}
	err = c.Run(func(n *core.Node) error {
		// Lock 2's manager is node 0, so node 1's stuck acquire shows
		// up in the report as "lock-req to 0".
		if n.ID() == 0 {
			if err := n.Acquire(2); err != nil {
				return err
			}
			<-n.Runtime().Done()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
		return n.Acquire(2)
	})
	if err == nil {
		t.Fatal("stalled run returned nil")
	}
	path := rec.Path()
	if path == "" {
		t.Fatal("watchdog fired but no flight bundle was written")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	b, err := metrics.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Samples) == 0 {
		t.Fatal("bundle has no metrics samples")
	}
	if len(b.Traces) == 0 {
		t.Fatal("bundle has no trace streams")
	}
	var out strings.Builder
	if err := metrics.WriteFlightReport(&out, b); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"watchdog", "no message progress", "lock-req to 0", "goroutines at capture"} {
		if !strings.Contains(report, want) {
			t.Fatalf("flight report missing %q:\n%s", want, report)
		}
	}
}

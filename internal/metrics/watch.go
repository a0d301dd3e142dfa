package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/stats"
)

// The live dashboard engine behind `dsmrun -watch`:
// poll every node's /metrics.json, render one per-node row plus a
// cluster-aggregate row, repeat. Rendering goes through an io.Writer
// so tests can drive it against httptest endpoints.

// windowEnvelope is the /metrics.json document: a Window plus the
// enabled marker so a scrape of a sampler-less node is
// distinguishable from a zero-traffic one.
type windowEnvelope struct {
	Enabled bool `json:"enabled"`
	Window
}

func writeWindowJSON(w io.Writer, win Window) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(windowEnvelope{Enabled: true, Window: win})
}

// FetchWindow scrapes one node's /metrics.json. A bare host:port is
// promoted to http://host:port/metrics.json.
func FetchWindow(endpoint string) (Window, error) {
	url := endpoint
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/metrics.json") {
		url = strings.TrimRight(url, "/") + "/metrics.json"
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return Window{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Window{}, fmt.Errorf("metrics: %s: %s", url, resp.Status)
	}
	var env windowEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return Window{}, fmt.Errorf("metrics: %s: %w", url, err)
	}
	if !env.Enabled {
		return Window{}, fmt.Errorf("metrics: %s: sampler disabled on that node", url)
	}
	return env.Window, nil
}

// WatchOpts configures a Watch loop.
type WatchOpts struct {
	// Interval between polls (default 1s).
	Interval time.Duration
	// Rounds bounds the loop; 0 polls until Stop closes (or forever).
	Rounds int
	// Stop, when closed, ends the loop after the current round.
	Stop <-chan struct{}
	// ClearScreen redraws in place with ANSI clear codes (dsmrun -watch
	// host:port ...); off, rounds append (dsmrun -watch over its own
	// tcp demo, interleaved with node output).
	ClearScreen bool
}

// Watch polls the endpoints and renders a refreshing per-node +
// cluster-aggregate table until Rounds is exhausted or Stop closes.
// A node that fails to answer renders as an error row — one dead
// node must not blank the dashboard for the rest.
func Watch(w io.Writer, endpoints []string, o WatchOpts) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("metrics: no endpoints to watch")
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	for round := 0; o.Rounds == 0 || round < o.Rounds; round++ {
		if round > 0 {
			select {
			case <-o.Stop:
				return nil
			case <-time.After(o.Interval):
			}
		}
		if o.ClearScreen {
			fmt.Fprint(w, "\x1b[H\x1b[2J")
		}
		RenderRound(w, endpoints)
	}
	return nil
}

// row is one dashboard line: a scraped window or the error that took
// its place.
type row struct {
	label string
	win   Window
	err   error
}

// RenderRound scrapes every endpoint once and renders the dashboard
// table to w.
func RenderRound(w io.Writer, endpoints []string) {
	rows := make([]row, len(endpoints))
	for i, ep := range endpoints {
		rows[i].label = ep
		rows[i].win, rows[i].err = FetchWindow(ep)
	}
	renderRows(w, rows)
}

// RenderLocal renders the dashboard table from in-process windows —
// simulator mode's `dsmrun -watch`, where there is no endpoint to
// scrape.
func RenderLocal(w io.Writer, wins ...Window) {
	rows := make([]row, len(wins))
	for i, win := range wins {
		rows[i] = row{label: fmt.Sprint(win.Node), win: win}
	}
	renderRows(w, rows)
}

func renderRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "dsmrun -watch — %s\n", time.Now().Format("15:04:05"))
	t := stats.NewTable("node", "qps", "p50_us", "p99_us", "p999_us", "slo%", "msg/s", "flt/s", "backlog", "chaos", "msgs_sent")
	var agg struct {
		qps, msgs, faults, backlog float64
		p50, p99, p999, slo        float64
		chaos, sent                int64
		live                       int
	}
	agg.slo = 1
	for _, r := range rows {
		if r.err != nil {
			t.AddRow(r.label, "err", r.err.Error())
			continue
		}
		win := r.win
		t.AddRow(fmt.Sprint(win.Node), win.OpsPerSec, win.OpP50Us, win.OpP99Us, win.OpP999Us,
			win.SLOAttainment*100, win.MsgsPerSec, win.FaultsPerSec, win.Backlog,
			win.ChaosInjected, win.Counters["msgs_sent"])
		agg.qps += win.OpsPerSec
		agg.msgs += win.MsgsPerSec
		agg.faults += win.FaultsPerSec
		agg.backlog += win.Backlog
		agg.chaos += win.ChaosInjected
		agg.sent += win.Counters["msgs_sent"]
		if win.OpP50Us > agg.p50 {
			agg.p50 = win.OpP50Us
		}
		if win.OpP99Us > agg.p99 {
			agg.p99 = win.OpP99Us
		}
		if win.OpP999Us > agg.p999 {
			agg.p999 = win.OpP999Us
		}
		if win.SLOAttainment < agg.slo {
			agg.slo = win.SLOAttainment
		}
		agg.live++
	}
	if agg.live > 0 {
		// Rates and backlog sum across nodes; quantiles and SLO take
		// the worst node (a cluster is as slow as its slowest member).
		t.AddRow("total", agg.qps, agg.p50, agg.p99, agg.p999, agg.slo*100,
			agg.msgs, agg.faults, agg.backlog, agg.chaos, agg.sent)
	}
	fmt.Fprint(w, t.String())
}

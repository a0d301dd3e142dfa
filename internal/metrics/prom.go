package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Prometheus text-format exposition (version 0.0.4): every stats
// counter as a counter family, every latency class as a native
// histogram whose le bounds are the log2 bucket upper edges, and the
// sampler's windowed derivations as gauges. Counter and histogram
// values come from a fresh Source snapshot at scrape time (so a
// scrape is exactly as current as /stats); only the windowed gauges
// lag by at most one sampling interval.

// WriteProm writes the exposition for the sampler's node.
func (s *Sampler) WriteProm(w io.Writer) error {
	if s == nil {
		_, err := fmt.Fprint(w, "# sampler disabled\n")
		return err
	}
	snap := s.cfg.Source()
	win := s.Window()
	return writeProm(w, s.cfg.Node, snap, win)
}

func writeProm(w io.Writer, node int32, snap stats.Snapshot, win Window) error {
	bw := bufio.NewWriter(w)
	lbl := fmt.Sprintf("{node=%q}", fmt.Sprint(node))
	for _, f := range snap.Fields() {
		name := "dsm_" + f.Name + "_total"
		fmt.Fprintf(bw, "# HELP %s DSM %s counter.\n# TYPE %s counter\n%s%s %d\n",
			name, f.Name, name, name, lbl, f.Value)
	}
	if snap.Lat != nil {
		for _, c := range snap.Lat.Classes() {
			writePromHist(bw, "dsm_"+c.Name+"_latency_seconds", lbl, c.HistSnapshot)
		}
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s%s %s\n",
			name, help, name, name, lbl, formatFloat(v))
	}
	gauge("dsm_window_span_seconds", "Span of the retained sample window.", win.SpanMs/1e3)
	gauge("dsm_window_samples", "Samples retained in the ring.", float64(win.Samples))
	gauge("dsm_msgs_per_second", "Windowed message send rate.", win.MsgsPerSec)
	gauge("dsm_bytes_per_second", "Windowed byte send rate.", win.BytesPerSec)
	gauge("dsm_faults_per_second", "Windowed page-fault rate.", win.FaultsPerSec)
	gauge("dsm_ops_per_second", "Windowed serving-op completion rate.", win.OpsPerSec)
	gauge("dsm_backlog_ops", "Derived open-loop schedule backlog.", win.Backlog)
	gauge("dsm_slo_attainment", "Fraction of windowed op samples under the SLO target.", win.SLOAttainment)
	gauge("dsm_slo_target_seconds", "Op-latency SLO target.", win.SLOTargetUs/1e6)
	return bw.Flush()
}

// writePromHist renders one log2 histogram as a Prometheus histogram:
// cumulative le buckets (upper bound of bucket i is 2^i ns, in
// seconds), +Inf, _sum, and _count.
func writePromHist(w io.Writer, name, lbl string, h stats.HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s DSM latency histogram (log2 ns buckets).\n# TYPE %s histogram\n", name, name)
	labelArgs := strings.TrimSuffix(strings.TrimPrefix(lbl, "{"), "}")
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if c == 0 && i != len(h.Buckets)-1 {
			continue // sparse: only emit edges that hold data (plus +Inf)
		}
		_, hi := promBucketBounds(i)
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labelArgs, formatFloat(hi), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labelArgs, cum)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labelArgs, formatFloat(float64(h.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labelArgs, cum)
}

// promBucketBounds returns bucket i's bounds in seconds.
func promBucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1e-9
	}
	return float64(int64(1)<<(i-1)) / 1e9, float64(int64(1)<<i) / 1e9
}

// formatFloat renders a float the Prometheus parser accepts (no
// trailing noise; integers stay integral).
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromHandler serves the exposition; the standard scrape target for
// the debug endpoint's /metrics route. Nil-safe: a nil sampler serves
// an empty exposition with a comment explaining why.
func (s *Sampler) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteProm(w)
	})
}

// JSONHandler serves the derived Window as JSON — the dsmrun -watch
// poll target (/metrics.json).
func (s *Sampler) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s == nil {
			io.WriteString(w, `{"enabled": false}`+"\n")
			return
		}
		writeWindowJSON(w, s.Window())
	})
}

// ParseExposition validates Prometheus text format and returns the
// metric samples keyed by "name{labels}". It accepts the subset the
// exposition format defines — comment lines (# HELP / # TYPE), blank
// lines, and sample lines `name{labels} value` — and rejects
// anything else, making it strict enough to gate the /metrics output
// in tests and the E16 experiment.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := make(map[string]string)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " ")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && (fields[1] == "TYPE") {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", line, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, err := splitPromName(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		val := strings.TrimSpace(rest)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %w", line, val, err)
		}
		key := strings.TrimSpace(strings.TrimSuffix(text, val))
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", line, key)
		}
		out[key] = v
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", line, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitPromName splits a sample line into its metric name (label
// block excluded) and the remainder after name+labels, validating
// name characters and label-block quoting.
func splitPromName(text string) (name, rest string, err error) {
	i := 0
	for i < len(text) {
		c := text[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", "", fmt.Errorf("no metric name in %q", text)
	}
	name, rest = text[:i], text[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case rest[j] == '\\' && inQuote:
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case rest[j] == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", fmt.Errorf("unterminated label block in %q", text)
		}
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", fmt.Errorf("missing value separator in %q", text)
	}
	return name, rest, nil
}

// MetricNames returns the sorted distinct metric base names in a
// parsed exposition — convenient for asserting family presence.
func MetricNames(samples map[string]float64) []string {
	set := make(map[string]bool)
	for k := range samples {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		set[strings.TrimSpace(name)] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"repro/internal/stats"
)

// Live introspection endpoint for TCP cluster mode: each process can
// opt in (dsmrun -debug-addr) to an HTTP listener exposing its node's
// counters, latency histograms, and trace ring alongside the standard
// net/http/pprof handlers. Everything is read-only and snapshot-based;
// hitting the endpoint never blocks the protocol.

// DebugConfig wires a node's observable state into a debug server.
type DebugConfig struct {
	Node   int32
	Stats  func() stats.Snapshot // required
	Tracer *Tracer               // may be nil (tracing disabled)
	// Extra mounts additional routes (path -> handler) on the debug
	// mux and lists them on the index page. The metrics layer uses
	// this to attach /metrics and /metrics.json without this package
	// importing it.
	Extra map[string]http.Handler
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a debug HTTP server on addr (host:port; port 0
// picks a free one). It returns once the listener is bound; serving
// continues in the background until Close.
func ServeDebug(addr string, cfg DebugConfig) (*DebugServer, error) {
	if cfg.Stats == nil {
		return nil, fmt.Errorf("trace: ServeDebug requires a Stats func")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	extraRoutes := make([]string, 0, len(cfg.Extra))
	for path := range cfg.Extra {
		extraRoutes = append(extraRoutes, path)
	}
	sort.Strings(extraRoutes)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dsm debug endpoint, node %d\n\n/stats\n/histograms\n/trace\n/trace?text=1\n", cfg.Node)
		for _, p := range extraRoutes {
			fmt.Fprintf(w, "%s\n", p)
		}
		fmt.Fprintf(w, "/debug/pprof/\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"node": cfg.Node, "counters": cfg.Stats().Map()})
	})
	mux.HandleFunc("/histograms", func(w http.ResponseWriter, r *http.Request) {
		s := cfg.Stats()
		if s.Lat == nil {
			writeJSON(w, map[string]any{"node": cfg.Node, "enabled": false})
			return
		}
		writeJSON(w, map[string]any{"node": cfg.Node, "enabled": true, "classes": HistogramSummaries(*s.Lat)})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			writeJSON(w, map[string]any{"node": cfg.Node, "enabled": false})
			return
		}
		st := cfg.Tracer.Stream()
		if r.URL.Query().Get("text") != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteTimeline(w, Merge([]Stream{st}))
			return
		}
		writeJSON(w, st)
	})
	for path, h := range cfg.Extra {
		mux.Handle(path, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("trace: debug server %s: %v", ln.Addr(), err)
		}
	}()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close gracefully stops the server, letting in-flight scrapes finish
// within a short bound before the listener is torn down.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}

// HistogramSummary is the JSON shape of one latency class, shared by
// the debug endpoint and dsmrun -stats json.
type HistogramSummary struct {
	Class  string  `json:"class"`
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// HistogramSummaries summarizes all latency classes with entries
// (empty classes are skipped).
func HistogramSummaries(ls stats.LatSnapshot) []HistogramSummary {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var out []HistogramSummary
	for _, c := range ls.Classes() {
		if c.Count == 0 {
			continue
		}
		out = append(out, HistogramSummary{
			Class:  c.Name,
			Count:  c.Count,
			MeanUs: us(c.MeanNs()),
			P50Us:  us(c.Quantile(0.5)),
			P90Us:  us(c.Quantile(0.9)),
			P99Us:  us(c.Quantile(0.99)),
			P999Us: us(c.Quantile(0.999)),
			MaxUs:  us(c.MaxNs),
		})
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
)

// TestStatsJSONShape pins the -stats json document: counters per
// node plus, when event tracing is on, the latency histogram classes
// with interpolated SLO quantiles (p50/p99/p999). Dashboards parse
// this shape; changing a key is a breaking change and should have to
// touch this test.
func TestStatsJSONShape(t *testing.T) {
	s := kv.New(kv.Params{Keys: 64, Ops: 120, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 7})
	cfg := core.Config{Nodes: 2, Protocol: core.LRC, PageSize: 512, EventTrace: true}
	res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: func() apps.App { return s }})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := printJSON(&buf, s, cfg, res.Elapsed, "ok", res.Nodes, 0); err != nil {
		t.Fatal(err)
	}

	// Decode generically: the assertions are about JSON key names and
	// value presence, exactly what an external consumer sees.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-stats json is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"app", "protocol", "nodes", "page", "elapsed_ms", "verify", "per_node", "total"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("top-level key %q missing:\n%s", key, buf.String())
		}
	}
	if doc["verify"] != "ok" {
		t.Fatalf("verify = %v, want ok", doc["verify"])
	}
	perNode, ok := doc["per_node"].([]any)
	if !ok || len(perNode) != cfg.Nodes {
		t.Fatalf("per_node has %d entries, want %d", len(perNode), cfg.Nodes)
	}

	checkNode := func(label string, v any) {
		node, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s is not an object", label)
		}
		counters, ok := node["counters"].(map[string]any)
		if !ok || len(counters) == 0 {
			t.Fatalf("%s carries no counters", label)
		}
		hists, ok := node["histograms"].([]any)
		if !ok || len(hists) == 0 {
			t.Fatalf("%s carries no histograms under EventTrace", label)
		}
		foundOp := false
		for _, h := range hists {
			hm, ok := h.(map[string]any)
			if !ok {
				t.Fatalf("%s histogram entry is not an object", label)
			}
			for _, key := range []string{"class", "count", "mean_us", "p50_us", "p90_us", "p99_us", "p999_us", "max_us"} {
				if _, ok := hm[key]; !ok {
					t.Fatalf("%s histogram missing key %q:\n%s", label, key, buf.String())
				}
			}
			if hm["class"] != "op" {
				continue
			}
			foundOp = true
			p50, _ := hm["p50_us"].(float64)
			p99, _ := hm["p99_us"].(float64)
			p999, _ := hm["p999_us"].(float64)
			if p50 <= 0 || p99 <= 0 || p999 <= 0 {
				t.Fatalf("%s op quantiles not populated: p50=%v p99=%v p999=%v", label, p50, p99, p999)
			}
			if p50 > p99 || p99 > p999 {
				t.Fatalf("%s op quantiles not monotone: p50=%v p99=%v p999=%v", label, p50, p99, p999)
			}
		}
		if !foundOp {
			t.Fatalf("%s has no \"op\" histogram class:\n%s", label, buf.String())
		}
	}
	for i, v := range perNode {
		checkNode("per_node["+string(rune('0'+i))+"]", v)
	}
	checkNode("total", doc["total"])
}

// TestKVFromFlags pins the flag-to-params mapping.
func TestKVFromFlags(t *testing.T) {
	s := kvFromFlags(apps.Small, 9, 1500, "write-heavy", 0.8, 512, 64)
	p := s.Params()
	if p.Seed != 9 || p.QPS != 1500 || p.Mix != loadgen.WriteHeavy || p.Dist != loadgen.Zipfian || p.Theta != 0.8 || p.Keys != 512 || p.Ops != 64 {
		t.Fatalf("flag mapping wrong: %+v", p)
	}
	// -zipf 0 selects uniform; zero keys/ops keep the scale defaults.
	s = kvFromFlags(apps.Medium, 1, 0, "", 0, 0, 0)
	p = s.Params()
	def := kv.NewMedium().Params()
	if p.Dist != loadgen.Uniform || p.Keys != def.Keys || p.Ops != def.Ops || p.Mix != def.Mix {
		t.Fatalf("defaults wrong: %+v (medium base %+v)", p, def)
	}
}

// TestValidateFlags pins the transport/flag checks: a knob that only
// one transport honours is refused on the other instead of being
// silently ignored (-transport tcp -advise used to change the
// handshake digest and print nothing).
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		o    options
		want string // substring of the error; "" = accepted
	}{
		{"sim defaults", options{transport: "sim", statsFmt: "table"}, ""},
		{"sim chaos advise latency", options{transport: "sim", statsFmt: "json", chaos: true, advise: true, latency: time.Millisecond}, ""},
		{"tcp defaults", options{transport: "tcp", statsFmt: "table", debugAddr: "127.0.0.1:0"}, ""},
		{"sim debug-addr", options{transport: "sim", statsFmt: "table", debugAddr: "127.0.0.1:0"}, "-debug-addr"},
		{"tcp chaos", options{transport: "tcp", statsFmt: "table", chaos: true}, "-chaos"},
		{"tcp latency", options{transport: "tcp", statsFmt: "table", latency: time.Millisecond}, "-latency"},
		{"tcp perbyte", options{transport: "tcp", statsFmt: "table", perByte: time.Nanosecond}, "-latency/-perbyte"},
		{"tcp advise", options{transport: "tcp", statsFmt: "table", advise: true}, "-advise"},
		{"unknown transport", options{transport: "udp", statsFmt: "table"}, "unknown transport"},
		{"bad stats format", options{transport: "sim", statsFmt: "xml"}, "-stats"},
	}
	for _, c := range cases {
		err := c.o.validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

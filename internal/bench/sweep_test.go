package bench

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseTables reads every table of an experiment's output whose first
// column is "app": the column names of the first one (all must agree)
// and the data rows of all of them, in order.
func parseTables(t *testing.T, out string) (cols []string, rows [][]string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i := 0; i < len(lines); i++ {
		head := strings.Fields(lines[i])
		if len(head) == 0 || head[0] != "app" {
			continue
		}
		if cols == nil {
			cols = head
		} else if !reflect.DeepEqual(cols, head) {
			t.Fatalf("tables disagree on columns: %v vs %v", cols, head)
		}
		for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ { // skip the dashes
			rows = append(rows, strings.Fields(lines[i]))
		}
	}
	return cols, rows
}

// TestSweepShapes pins what the E3–E8 sweep table prints: per
// experiment the exact column names, the exact (app, protocol[, page])
// row labels in order, and one inequality EXPERIMENTS.md states.
func TestSweepShapes(t *testing.T) {
	const sor, fsh, tq, hist = "sor-48x32x6", "falseshare-12x32", "taskqueue-64x300", "histogram-8192x32"
	// cross is the label order every sweep uses: apps outermost, then
	// protocols, then page sizes.
	cross := func(apps, protos, pages []string) (labels [][]string) {
		for _, a := range apps {
			for _, p := range protos {
				if pages == nil {
					labels = append(labels, []string{a, p})
				}
				for _, ps := range pages {
					labels = append(labels, []string{a, p, ps})
				}
			}
		}
		return labels
	}
	type cell struct{ app, proto, page, col string }
	cases := []struct {
		id     string
		cols   []string
		labels [][]string
		// less[i] must read strictly below more[i].
		less, more []cell
	}{
		{"e3", []string{"app", "locator", "faults", "msgs", "kbytes", "forwards", "page_xfers"},
			cross([]string{sor, tq}, []string{"sc-central", "sc-fixed", "sc-dynamic", "sc-broadcast"}, nil),
			[]cell{{sor, "sc-central", "", "msgs"}, {sor, "sc-fixed", "", "msgs"}, {sor, "sc-dynamic", "", "msgs"}},
			[]cell{{sor, "sc-broadcast", "", "msgs"}, {sor, "sc-broadcast", "", "msgs"}, {sor, "sc-broadcast", "", "msgs"}}},
		{"e4", []string{"app", "class", "time_ms", "msgs", "kbytes", "remote_reads", "remote_writes", "page_xfers"},
			cross([]string{"matmul-48", fsh, sor}, []string{"central-server", "migrate", "sc-fixed", "full-replication"}, nil),
			[]cell{{"matmul-48", "sc-fixed", "", "msgs"}}, []cell{{"matmul-48", "central-server", "", "msgs"}}},
		{"e5", []string{"app", "protocol", "page", "time_ms", "faults", "msgs", "kbytes"},
			cross([]string{sor, fsh}, []string{"sc-fixed", "erc-invalidate", "lrc"}, []string{"128", "512", "2048"}),
			[]cell{{fsh, "sc-fixed", "128", "faults"}}, []cell{{fsh, "sc-fixed", "2048", "faults"}}},
		{"e6", []string{"app", "protocol", "faults", "msgs", "kbytes", "invalidations", "updates"},
			cross([]string{sor, fsh, hist}, []string{"sc-fixed", "erc-invalidate", "erc-update"}, nil),
			[]cell{{sor, "erc-update", "", "faults"}}, []cell{{sor, "erc-invalidate", "", "faults"}}},
		{"e7", []string{"app", "protocol", "time_ms", "msgs", "kbytes", "faults", "diffs", "diff_fetches", "notices"},
			cross([]string{sor, fsh, tq, hist}, []string{"erc-invalidate", "hlrc", "lrc"}, nil),
			[]cell{{sor, "lrc", "", "msgs"}}, []cell{{sor, "erc-invalidate", "", "msgs"}}},
		{"e8", []string{"app", "protocol", "time_ms", "msgs", "kbytes", "faults", "grant_kb", "locks"},
			cross([]string{tq, "tsp-8", hist}, []string{"sc-fixed", "lrc", "ec", "ec-diff"}, nil),
			[]cell{{tq, "ec", "", "msgs"}, {tq, "ec", "", "msgs"}}, []cell{{tq, "sc-fixed", "", "msgs"}, {tq, "lrc", "", "msgs"}}},
	}
	for _, c := range cases {
		e, ok := Find(c.id)
		if !ok {
			t.Fatalf("%s: not registered", c.id)
		}
		var out strings.Builder
		if err := e.Run(&out); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		cols, rows := parseTables(t, out.String())
		if !reflect.DeepEqual(cols, c.cols) {
			t.Errorf("%s: columns %v, want %v", c.id, cols, c.cols)
			continue
		}
		nlabel := len(c.labels[0])
		var labels [][]string
		for _, r := range rows {
			if len(r) != len(cols) {
				t.Fatalf("%s: row %v has %d cells for %d columns", c.id, r, len(r), len(cols))
			}
			labels = append(labels, r[:nlabel])
		}
		if !reflect.DeepEqual(labels, c.labels) {
			t.Errorf("%s: row labels\n%v\nwant\n%v", c.id, labels, c.labels)
			continue
		}
		value := func(want cell) float64 {
			for ci, name := range cols {
				if name != want.col {
					continue
				}
				for _, r := range rows {
					if r[0] == want.app && r[1] == want.proto && (want.page == "" || r[2] == want.page) {
						v, err := strconv.ParseFloat(r[ci], 64)
						if err != nil {
							t.Fatalf("%s: %+v = %q: %v", c.id, want, r[ci], err)
						}
						return v
					}
				}
			}
			t.Fatalf("%s: no cell %+v", c.id, want)
			return 0
		}
		for i := range c.less {
			if lo, hi := value(c.less[i]), value(c.more[i]); !(lo < hi) {
				t.Errorf("%s: %+v = %v is not below %+v = %v", c.id, c.less[i], lo, c.more[i], hi)
			}
		}
	}
}

package stats

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotAndAdd(t *testing.T) {
	var n Node
	n.Reads.Add(3)
	n.MsgsSent.Add(2)
	s := n.Snapshot()
	if s.Reads != 3 || s.MsgsSent != 2 || s.Writes != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	sum := s.Add(s)
	if sum.Reads != 6 || sum.MsgsSent != 4 {
		t.Fatalf("add = %+v", sum)
	}
	if got := Sum([]Snapshot{s, s, s}).Reads; got != 9 {
		t.Fatalf("Sum reads = %d", got)
	}
}

// Sub must invert Add over every counter in the field plan, and
// produce the bucket-wise latency window when both sides carry
// histograms.
func TestSnapshotSub(t *testing.T) {
	var n Node
	n.MsgsSent.Store(10)
	n.Reads.Store(3)
	before := n.Snapshot()
	n.MsgsSent.Add(7)
	n.Writes.Add(2)
	after := n.Snapshot()
	d := after.Sub(before)
	if d.MsgsSent != 7 || d.Writes != 2 || d.Reads != 0 {
		t.Fatalf("Sub delta wrong: %+v", d)
	}
	// Round trip: before + (after - before) == after on every field.
	if got := before.Add(d); got.String() != after.String() {
		t.Fatalf("Add(Sub) round trip: got %s, want %s", got, after)
	}
	// Histogram windows subtract bucket-wise.
	n.Lat = &LatHists{}
	n.Lat.Op.Observe(1000)
	mid := n.Snapshot()
	n.Lat.Op.Observe(5000)
	end := n.Snapshot()
	win := end.Sub(mid)
	if win.Lat == nil || win.Lat.Op.Count != 1 {
		t.Fatalf("latency window not carried: %+v", win.Lat)
	}
	// One-sided histograms pass through rather than inventing a delta.
	onesided := end.Sub(before)
	if onesided.Lat == nil || onesided.Lat.Op.Count != 2 {
		t.Fatalf("one-sided Sub dropped the histogram: %+v", onesided.Lat)
	}
}

func TestFaults(t *testing.T) {
	s := Snapshot{ReadFaults: 2, WriteFaults: 5}
	if s.Faults() != 7 {
		t.Fatalf("Faults = %d", s.Faults())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var n Node
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				n.Writes.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := n.Snapshot().Writes; got != 8000 {
		t.Fatalf("Writes = %d, want 8000", got)
	}
}

// TestEveryNodeCounterReachesFields drives each atomic counter in Node
// to a distinct value via reflection and asserts Fields() surfaces
// every one of them under a unique name — the guarantee that a newly
// added counter can never silently vanish from reports. It needs no
// editing when a counter is added.
func TestEveryNodeCounterReachesFields(t *testing.T) {
	var n Node
	nv := reflect.ValueOf(&n).Elem()
	atomicT := reflect.TypeOf(atomic.Int64{})
	want := make(map[int64]string) // distinct value -> Node field name
	next := int64(1)
	for i := 0; i < nv.NumField(); i++ {
		f := nv.Type().Field(i)
		if f.Type != atomicT {
			continue
		}
		nv.Field(i).Addr().Interface().(*atomic.Int64).Store(next)
		want[next] = f.Name
		next++
	}
	fields := n.Snapshot().Fields()
	if len(fields) != len(want) {
		t.Fatalf("Fields() has %d entries, Node has %d atomic counters", len(fields), len(want))
	}
	seen := make(map[string]bool)
	for _, f := range fields {
		if seen[f.Name] {
			t.Fatalf("duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
		if _, ok := want[f.Value]; !ok {
			t.Fatalf("field %s carries value %d, not one of the stored sentinels", f.Name, f.Value)
		}
		delete(want, f.Value)
	}
	for v, name := range want {
		t.Errorf("Node.%s (sentinel %d) never appeared in Fields()", name, v)
	}
	m := n.Snapshot().Map()
	if len(m) != len(fields) {
		t.Fatalf("Map() has %d names, Fields() %d", len(m), len(fields))
	}
	for _, f := range fields {
		if m[f.Name] != f.Value {
			t.Errorf("Map()[%s] = %d, Fields() says %d", f.Name, m[f.Name], f.Value)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Reads: 5, DiffBytes: 7}
	str := s.String()
	if !strings.Contains(str, "reads=5") || !strings.Contains(str, "diff_bytes=7") {
		t.Fatalf("String = %q", str)
	}
	if strings.Contains(str, "writes") {
		t.Fatalf("zero counter rendered: %q", str)
	}
	if (Snapshot{}).String() != "(all zero)" {
		t.Fatal("zero snapshot String wrong")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 100)
	tb.AddRow("b", 2)
	tb.AddRow("c", 3.14159)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[4], "3.14") {
		t.Fatalf("float row = %q", lines[4])
	}
	// Numeric column right-aligned: "100" and "  2" end at same offset.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned rows:\n%s", out)
	}
}

func TestPerNodeReport(t *testing.T) {
	a := Snapshot{Reads: 1, MsgsSent: 2}
	b := Snapshot{Reads: 3}
	out := PerNodeReport([]Snapshot{a, b})
	if !strings.Contains(out, "total") || !strings.Contains(out, "reads") {
		t.Fatalf("report:\n%s", out)
	}
	if strings.Contains(out, "writes") {
		t.Fatalf("all-zero column rendered:\n%s", out)
	}
	if PerNodeReport(nil) != "(no nodes)\n" {
		t.Fatal("empty report wrong")
	}
}

// TestPerNodeReportKeepsCancellingColumns: a column whose per-node
// values sum to zero (one node +5, another −5) used to be dropped
// because the keep test only looked at the totals row. Any node with a
// non-zero value must keep the column visible.
func TestPerNodeReportKeepsCancellingColumns(t *testing.T) {
	a := Snapshot{Reads: 1, Retries: 5}
	b := Snapshot{Reads: 1, Retries: -5}
	out := PerNodeReport([]Snapshot{a, b})
	if !strings.Contains(out, "retries") {
		t.Fatalf("column cancelling to zero total was dropped:\n%s", out)
	}
	if !strings.Contains(out, "-5") {
		t.Fatalf("negative node value not rendered:\n%s", out)
	}
}

// TestPerNodeReportAppendsLatencies: snapshots carrying histograms get
// the quantile table appended after the counter table.
func TestPerNodeReportAppendsLatencies(t *testing.T) {
	var h LatHists
	h.Fault.Observe(1000)
	h.RPC.Observe(2000)
	ls := h.Snapshot()
	out := PerNodeReport([]Snapshot{{Reads: 1, Lat: &ls}})
	for _, want := range []string{"latency", "fault", "rpc", "p99_us"} {
		if !strings.Contains(out, want) {
			t.Fatalf("latency report missing %q:\n%s", want, out)
		}
	}
}

func TestIsNumeric(t *testing.T) {
	for s, want := range map[string]bool{
		"123": true, "-4": true, "3.14": true, "": false,
		"1.2.3": false, "abc": false, "12a": false,
	} {
		if isNumeric(s) != want {
			t.Errorf("isNumeric(%q) = %v", s, !want)
		}
	}
}

func TestChart(t *testing.T) {
	ch := NewChart("speedup vs nodes", "nodes", "speedup")
	ch.Add("lrc", 1, 1.0)
	ch.Add("lrc", 2, 1.7)
	ch.Add("lrc", 4, 2.6)
	ch.Add("sc", 1, 1.0)
	ch.Add("sc", 2, 1.3)
	ch.Add("sc", 4, 1.5)
	out := ch.String()
	for _, want := range []string{"A = lrc", "B = sc", "nodes", "speedup", "A=2.60", "B=1.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// x rows in ascending order.
	if strings.Index(out, "1 |") > strings.Index(out, "4 |") {
		t.Fatalf("x rows out of order:\n%s", out)
	}
	if !strings.Contains(NewChart("t", "x", "y").String(), "no data") {
		t.Fatal("empty chart not handled")
	}
	// Colliding points render a * marker.
	ch2 := NewChart("t", "x", "y")
	ch2.Add("a", 1, 5)
	ch2.Add("b", 1, 5)
	if !strings.Contains(ch2.String(), "*") {
		t.Fatalf("collision marker missing:\n%s", ch2.String())
	}
}

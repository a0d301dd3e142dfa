// Package stats collects per-node and cluster-wide counters for the DSM
// system: shared-memory accesses, page faults, network traffic,
// protocol actions (invalidations, diffs, write notices), and
// synchronization waits. Counters are updated with atomics so that
// application goroutines, protocol handlers, and the network layer can
// record events concurrently without coordination.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
)

// Node holds the event counters for one DSM node. The zero value is
// ready to use. All fields may be updated concurrently.
//
// Every atomic.Int64 field must have a same-named int64 field in
// Snapshot (with a `stats` name tag); Snapshot/Add/Fields are driven
// by one reflection-built plan, checked at init, so adding a counter
// means adding exactly two struct fields.
type Node struct {
	// Shared-memory access counts (successful, after any fault).
	Reads  atomic.Int64
	Writes atomic.Int64

	// Software-MMU fault counts.
	ReadFaults  atomic.Int64
	WriteFaults atomic.Int64

	// Network traffic as seen by this node's endpoint.
	MsgsSent  atomic.Int64
	BytesSent atomic.Int64
	MsgsRecv  atomic.Int64
	BytesRecv atomic.Int64

	// Connection events of a real transport (zero on the simulator).
	Dials      atomic.Int64 // outbound connections established (one per peer at most)
	SendErrors atomic.Int64 // sends that failed at the substrate (a lost peer fails every later one)

	// Fault injection and recovery (all zero on a fault-free network).
	// Under a fault plan the simulator's links carry every message in
	// frames; these count frames, acks and NACKs included.
	MsgsDropped    atomic.Int64 // frames this node sent that the network dropped
	MsgsDuplicated atomic.Int64 // frames this node sent that the network duplicated
	MsgsSpiked     atomic.Int64 // frames this node sent that the network delayed by a latency spike
	Partitions     atomic.Int64 // transient partitions opened on a link this node is an end of
	Stalls         atomic.Int64 // endpoint stalls injected at this node
	Retries        atomic.Int64 // data frames this node's links retransmitted
	DupRequests    atomic.Int64 // data frames this node's links discarded at the sequence check
	CachedReplies  atomic.Int64 // always 0: nothing re-serves replies since the links deliver once (kept for the benchmark's metric)
	LateReplies    atomic.Int64 // replies whose call had given up (timed out) by the time they came
	StrayReplies   atomic.Int64 // replies with no matching call ever made (protocol bug)

	// Message batching (all zero unless batching is enabled).
	BatchedMsgs    atomic.Int64 // messages that travelled as members of a batch frame
	FlushedBatches atomic.Int64 // multi-message batch frames sent
	DiffPushes     atomic.Int64 // interest-based diff push bundles sent (LRC)

	// Coherence-protocol actions.
	Invalidations     atomic.Int64 // invalidation requests served by this node
	Forwards          atomic.Int64 // requests forwarded along owner chains
	PageTransfers     atomic.Int64 // whole-page payloads sent by this node
	UpdatesApplied    atomic.Int64 // update/diff payloads applied locally
	TwinCopies        atomic.Int64 // twins created for multiple-writer protocols
	DiffsCreated      atomic.Int64 // diffs computed from twins
	DiffBytes         atomic.Int64 // total encoded diff bytes created
	DiffFetches       atomic.Int64 // remote diff requests issued
	WriteNotices      atomic.Int64 // write notices received (LRC)
	DirectReads       atomic.Int64 // reads served remotely without caching
	DirectWrites      atomic.Int64 // writes performed remotely without caching
	GrantPayloadBytes atomic.Int64 // consistency data piggybacked on sync grants

	// Synchronization.
	LockAcquires    atomic.Int64
	LockLocalGrants atomic.Int64 // acquires served with no message (a cached token or read copy)
	LockWaitNs      atomic.Int64 // summed over acquires that queued or sent a request; a local grant reads no clock
	BarrierWaits    atomic.Int64
	BarrierWaitNs   atomic.Int64

	// The simulator's links under a fault plan (zero otherwise).
	LinkAcks     atomic.Int64 // ack and NACK frames this node's links sent
	LinkAcksRecv atomic.Int64 // ack and NACK frames this node's links received

	// Lat holds the latency histograms, non-nil only when event
	// tracing is enabled (core.Config.EventTrace). It is not a
	// counter: snapshots carry it as Snapshot.Lat, outside the field
	// plan.
	Lat *LatHists
}

// Snapshot is a plain-value copy of a Node's counters, safe to
// aggregate and compare. Field names match Node's counters 1:1; the
// `stats` tag is the report name.
type Snapshot struct {
	Reads             int64 `stats:"reads"`
	Writes            int64 `stats:"writes"`
	ReadFaults        int64 `stats:"read_faults"`
	WriteFaults       int64 `stats:"write_faults"`
	MsgsSent          int64 `stats:"msgs_sent"`
	BytesSent         int64 `stats:"bytes_sent"`
	MsgsRecv          int64 `stats:"msgs_recv"`
	BytesRecv         int64 `stats:"bytes_recv"`
	Dials             int64 `stats:"dials"`
	SendErrors        int64 `stats:"send_errors"`
	MsgsDropped       int64 `stats:"msgs_dropped"`
	MsgsDuplicated    int64 `stats:"msgs_duplicated"`
	MsgsSpiked        int64 `stats:"msgs_spiked"`
	Partitions        int64 `stats:"partitions"`
	Stalls            int64 `stats:"stalls"`
	Retries           int64 `stats:"retries"`
	DupRequests       int64 `stats:"dup_requests"`
	CachedReplies     int64 `stats:"cached_replies"`
	LateReplies       int64 `stats:"late_replies"`
	StrayReplies      int64 `stats:"stray_replies"`
	BatchedMsgs       int64 `stats:"batched_msgs"`
	FlushedBatches    int64 `stats:"flushed_batches"`
	DiffPushes        int64 `stats:"diff_pushes"`
	Invalidations     int64 `stats:"invalidations"`
	Forwards          int64 `stats:"forwards"`
	PageTransfers     int64 `stats:"page_transfers"`
	UpdatesApplied    int64 `stats:"updates_applied"`
	TwinCopies        int64 `stats:"twins"`
	DiffsCreated      int64 `stats:"diffs"`
	DiffBytes         int64 `stats:"diff_bytes"`
	DiffFetches       int64 `stats:"diff_fetches"`
	WriteNotices      int64 `stats:"write_notices"`
	DirectReads       int64 `stats:"direct_reads"`
	DirectWrites      int64 `stats:"direct_writes"`
	GrantPayloadBytes int64 `stats:"grant_payload_bytes"`
	LockAcquires      int64 `stats:"lock_acquires"`
	LockLocalGrants   int64 `stats:"lock_local_grants"`
	LockWaitNs        int64 `stats:"lock_wait_ns"`
	BarrierWaits      int64 `stats:"barrier_waits"`
	BarrierWaitNs     int64 `stats:"barrier_wait_ns"`
	LinkAcks          int64 `stats:"link_acks"`
	LinkAcksRecv      int64 `stats:"link_acks_recv"`

	// Lat carries the latency histograms when tracing was enabled on
	// the source node; nil otherwise.
	Lat *LatSnapshot
}

// fieldInfo is one counter's position in both structs plus its report
// name — the single source of truth for Snapshot, Add, and Fields.
type fieldInfo struct {
	name    string
	nodeIdx int // field index in Node (an atomic.Int64)
	snapIdx int // field index in Snapshot (an int64)
}

// fieldPlan is built once at init and panics on any drift between
// Node and Snapshot, so a counter added to one struct but not the
// other fails the first test run rather than silently vanishing from
// reports.
var fieldPlan = buildFieldPlan()

func buildFieldPlan() []fieldInfo {
	nodeT := reflect.TypeOf(Node{})
	snapT := reflect.TypeOf(Snapshot{})
	atomicT := reflect.TypeOf(atomic.Int64{})
	nodeIdx := make(map[string]int)
	for i := 0; i < nodeT.NumField(); i++ {
		if f := nodeT.Field(i); f.Type == atomicT {
			nodeIdx[f.Name] = i
		}
	}
	var plan []fieldInfo
	for i := 0; i < snapT.NumField(); i++ {
		f := snapT.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		name := f.Tag.Get("stats")
		if name == "" {
			panic(fmt.Sprintf("stats: Snapshot.%s lacks a `stats` name tag", f.Name))
		}
		ni, ok := nodeIdx[f.Name]
		if !ok {
			panic(fmt.Sprintf("stats: Snapshot.%s has no matching atomic counter in Node", f.Name))
		}
		delete(nodeIdx, f.Name)
		plan = append(plan, fieldInfo{name: name, nodeIdx: ni, snapIdx: i})
	}
	if len(nodeIdx) != 0 {
		var missing []string
		for name := range nodeIdx {
			missing = append(missing, name)
		}
		sort.Strings(missing)
		panic(fmt.Sprintf("stats: Node counters missing from Snapshot: %v", missing))
	}
	return plan
}

// Snapshot returns a consistent-enough point-in-time copy of the
// counters. Individual fields are read atomically; the set of fields
// is not a single atomic snapshot, which is fine for reporting.
func (n *Node) Snapshot() Snapshot {
	var s Snapshot
	nv := reflect.ValueOf(n).Elem()
	sv := reflect.ValueOf(&s).Elem()
	for _, f := range fieldPlan {
		v := nv.Field(f.nodeIdx).Addr().Interface().(*atomic.Int64).Load()
		sv.Field(f.snapIdx).SetInt(v)
	}
	if n.Lat != nil {
		ls := n.Lat.Snapshot()
		s.Lat = &ls
	}
	return s
}

// Add returns the field-wise sum of two snapshots. Latency histograms
// aggregate bucket-wise when either side carries them.
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := s
	ov := reflect.ValueOf(&o).Elem()
	outv := reflect.ValueOf(&out).Elem()
	for _, f := range fieldPlan {
		fv := outv.Field(f.snapIdx)
		fv.SetInt(fv.Int() + ov.Field(f.snapIdx).Int())
	}
	switch {
	case s.Lat == nil && o.Lat == nil:
		out.Lat = nil
	default:
		var m LatSnapshot
		if s.Lat != nil {
			m = *s.Lat
		}
		if o.Lat != nil {
			m = m.Add(*o.Lat)
		}
		out.Lat = &m
	}
	return out
}

// Sub returns the field-wise difference s - o: the counter activity
// between two snapshots of the same node (or aggregate). Latency
// histograms subtract bucket-wise when both sides carry them; a
// one-sided histogram passes through unchanged (the window opened or
// closed across a tracing toggle, which never happens mid-run).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	out := s
	ov := reflect.ValueOf(&o).Elem()
	outv := reflect.ValueOf(&out).Elem()
	for _, f := range fieldPlan {
		fv := outv.Field(f.snapIdx)
		fv.SetInt(fv.Int() - ov.Field(f.snapIdx).Int())
	}
	if s.Lat != nil && o.Lat != nil {
		d := s.Lat.Sub(*o.Lat)
		out.Lat = &d
	}
	return out
}

// Sum aggregates a slice of snapshots.
func Sum(snaps []Snapshot) Snapshot {
	var total Snapshot
	for _, s := range snaps {
		total = total.Add(s)
	}
	return total
}

// Faults returns the total page-fault count.
func (s Snapshot) Faults() int64 { return s.ReadFaults + s.WriteFaults }

// Fields returns the snapshot as ordered (name, value) pairs, used by
// the reporting tools so a new counter automatically appears in every
// report. The order is Snapshot's declaration order.
func (s Snapshot) Fields() []Field {
	sv := reflect.ValueOf(&s).Elem()
	out := make([]Field, len(fieldPlan))
	for i, f := range fieldPlan {
		out[i] = Field{Name: f.name, Value: sv.Field(f.snapIdx).Int()}
	}
	return out
}

// Map returns the counters keyed by report name: the shape of every
// JSON rendering of a snapshot.
func (s Snapshot) Map() map[string]int64 {
	out := make(map[string]int64, len(fieldPlan))
	for _, f := range s.Fields() {
		out[f.Name] = f.Value
	}
	return out
}

// Field is one named counter value.
type Field struct {
	Name  string
	Value int64
}

// String renders the non-zero counters compactly, in field order.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, f := range s.Fields() {
		if f.Value == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", f.Name, f.Value)
	}
	if b.Len() == 0 {
		return "(all zero)"
	}
	return b.String()
}

// Table renders rows of labelled values as an aligned text table with
// a header line and a separator, suitable for experiment reports.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with right-aligned numeric-looking columns
// and left-aligned text columns.
func (t *Table) String() string {
	ncol := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if isNumeric(cell) {
				fmt.Fprintf(&b, "%*s", width[i], cell)
			} else {
				fmt.Fprintf(&b, "%-*s", width[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '-' && i == 0:
		case r == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return true
}

// PerNodeReport renders one row per node plus a totals row for the
// given snapshots, omitting columns that are zero on every node. A
// column where positive and negative node values cancel to a zero
// total is kept — any individually non-zero node keeps it visible.
// When any snapshot carries latency histograms, their quantile table
// is appended.
func PerNodeReport(snaps []Snapshot) string {
	if len(snaps) == 0 {
		return "(no nodes)\n"
	}
	total := Sum(snaps)
	keep := make(map[string]bool)
	for _, s := range snaps {
		for _, f := range s.Fields() {
			if f.Value != 0 {
				keep[f.Name] = true
			}
		}
	}
	var order []string
	for _, f := range total.Fields() {
		if keep[f.Name] {
			order = append(order, f.Name)
		}
	}
	headers := append([]string{"node"}, order...)
	t := NewTable(headers...)
	rowFor := func(label string, s Snapshot) {
		cells := []any{label}
		vals := s.Map()
		for _, name := range order {
			cells = append(cells, vals[name])
		}
		t.AddRow(cells...)
	}
	for i, s := range snaps {
		rowFor(fmt.Sprint(i), s)
	}
	rowFor("total", total)
	out := t.String()
	if lat := latReport(snaps); lat != "" {
		out += "\n" + lat
	}
	return out
}

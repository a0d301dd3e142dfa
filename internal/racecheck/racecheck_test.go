package racecheck_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/racecheck"
	"repro/internal/trace"
)

// --- Synthetic-stream precision tests ---------------------------------
//
// Hand-built streams pin down exactly which edges the checker honours:
// each test is one pair of conflicting accesses plus (at most) one
// kind of synchronization between them.

func stream(node int32, events ...trace.Event) trace.Stream {
	for i := range events {
		events[i].Node = node
	}
	return trace.Stream{Node: node, Events: events}
}

func write(ts int64, page int32, off, length int, hash uint64) trace.Event {
	return trace.Event{TS: ts, Type: trace.EvWrite, Page: page, Peer: -1, Lock: -1,
		Req: hash, Arg: trace.AccessArg(off, length)}
}

func read(ts int64, page int32, off, length int, hash uint64) trace.Event {
	return trace.Event{TS: ts, Type: trace.EvRead, Page: page, Peer: -1, Lock: -1,
		Req: hash, Arg: trace.AccessArg(off, length)}
}

func TestUnorderedOverlappingWritesRace(t *testing.T) {
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa)),
		stream(1, write(1, 1, 0, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if rep.RaceCount != 1 || rep.FalseShareCount != 0 {
		t.Fatalf("races = %d, sharing = %d; want exactly one data race\n%s",
			rep.RaceCount, rep.FalseShareCount, rep.String())
	}
	if !rep.Races[0].Overlap {
		t.Fatalf("race not marked overlapping: %s", rep.Races[0])
	}
}

func TestDisjointWritesAreFalseSharingOnly(t *testing.T) {
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa)),
		stream(1, write(1, 1, 8, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if rep.RaceCount != 0 || rep.FalseShareCount != 1 {
		t.Fatalf("races = %d, sharing = %d; want one false-sharing pair and no race\n%s",
			rep.RaceCount, rep.FalseShareCount, rep.String())
	}
	if !rep.Clean() {
		t.Fatal("false sharing alone must leave the report clean")
	}
	// Under page granularity the same pair is a real race.
	rep = racecheck.Check(streams, racecheck.Options{PageGranularity: true})
	if rep.RaceCount != 1 {
		t.Fatalf("page granularity: races = %d, want 1\n%s", rep.RaceCount, rep.String())
	}
}

func TestReadReadPairIsNotARace(t *testing.T) {
	streams := []trace.Stream{
		stream(0, read(0, 1, 0, 8, 0xaa)),
		stream(1, read(1, 1, 0, 8, 0xaa)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if rep.RaceCount != 0 || rep.FalseShareCount != 0 {
		t.Fatalf("concurrent reads flagged: %s", rep.String())
	}
}

func TestLockEdgeOrdersAccesses(t *testing.T) {
	rel := trace.Event{TS: 1, Type: trace.EvLockRelease, Lock: 5, Page: -1, Peer: 0}
	grant := trace.Event{TS: 2, Type: trace.EvLockGrant, Lock: 5, Page: -1, Peer: 0}
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa), rel),
		stream(1, grant, write(3, 1, 0, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if !rep.Clean() || rep.FalseShareCount != 0 {
		t.Fatalf("release->grant edge not honoured: %s", rep.String())
	}
}

func TestBarrierEpisodeOrdersAccesses(t *testing.T) {
	arrive := func(ts int64) trace.Event {
		return trace.Event{TS: ts, Type: trace.EvBarArrive, Lock: 0, Page: -1, Peer: 0}
	}
	release := func(ts int64) trace.Event {
		return trace.Event{TS: ts, Type: trace.EvBarRelease, Lock: 0, Page: -1, Peer: 0}
	}
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa), arrive(1), release(4)),
		stream(1, arrive(2), release(5), write(6, 1, 0, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if !rep.Clean() || rep.FalseShareCount != 0 {
		t.Fatalf("barrier arrive->release edge not honoured: %s", rep.String())
	}
}

func TestJoinMarksOrderAccesses(t *testing.T) {
	mark := func(ts int64, phase uint64) trace.Event {
		return trace.Event{TS: ts, Type: trace.EvMark, Page: -1, Peer: -1, Lock: -1,
			Arg: trace.MarkArg(phase, 0)}
	}
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa),
			mark(1, trace.MarkJoinRelease), mark(2, trace.MarkJoinAcquire)),
		stream(1, mark(1, trace.MarkJoinRelease), mark(3, trace.MarkJoinAcquire),
			write(4, 1, 0, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if !rep.Clean() || rep.FalseShareCount != 0 {
		t.Fatalf("join-mark threshold not honoured: %s", rep.String())
	}
}

func TestProtocolMessagesDoNotHideRaces(t *testing.T) {
	// A coherence message (send->recv) connects the two writers, but
	// messages are not synchronization: the race must still be flagged.
	send := trace.Event{TS: 1, Type: trace.EvSend, Req: 7, Arg: trace.MsgArg(3, 0), Peer: 1, Page: -1, Lock: -1}
	recv := trace.Event{TS: 2, Type: trace.EvRecv, Req: 7, Arg: trace.MsgArg(3, 0), Peer: 0, Page: -1, Lock: -1}
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa), send),
		stream(1, recv, write(3, 1, 0, 8, 0xbb)),
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if rep.RaceCount != 1 {
		t.Fatalf("races = %d, want 1 (messages must not count as sync edges)\n%s",
			rep.RaceCount, rep.String())
	}
}

func TestValueCheckCatchesStaleRead(t *testing.T) {
	// Node 0 writes, the write's existence causally reaches node 1 via
	// a message, yet node 1 still reads the initial zero bytes: stale.
	send := trace.Event{TS: 1, Type: trace.EvSend, Req: 7, Arg: trace.MsgArg(3, 0), Peer: 1, Page: -1, Lock: -1}
	recv := trace.Event{TS: 2, Type: trace.EvRecv, Req: 7, Arg: trace.MsgArg(3, 0), Peer: 0, Page: -1, Lock: -1}
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa), send),
		stream(1, recv, read(3, 1, 0, 8, trace.HashZero(8))),
	}
	rep := racecheck.Check(streams, racecheck.Options{ValueCheck: true})
	if rep.ViolationCount != 1 {
		t.Fatalf("violations = %d, want 1 (stale zero-state read)\n%s",
			rep.ViolationCount, rep.String())
	}

	// Same shape, but the read returns the written value: explained.
	streams = []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa), send),
		stream(1, recv, read(3, 1, 0, 8, 0xaa)),
	}
	rep = racecheck.Check(streams, racecheck.Options{ValueCheck: true})
	if rep.ViolationCount != 0 {
		t.Fatalf("explained read flagged: %s", rep.String())
	}
}

func TestValueCheckZeroStateBeforePropagation(t *testing.T) {
	// A zero read concurrent with the write (no message joining them)
	// is explained by the initial state — not a violation.
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa)),
		stream(1, read(1, 1, 0, 8, trace.HashZero(8))),
	}
	rep := racecheck.Check(streams, racecheck.Options{ValueCheck: true})
	if rep.ViolationCount != 0 {
		t.Fatalf("fresh zero-state read flagged: %s", rep.String())
	}
}

func TestTruncatedStreamSetsWarning(t *testing.T) {
	streams := []trace.Stream{
		{Node: 0, Dropped: 17, Events: []trace.Event{write(0, 1, 0, 8, 0xaa)}},
	}
	rep := racecheck.Check(streams, racecheck.Options{})
	if !rep.Truncated || len(rep.Warnings) == 0 {
		t.Fatalf("Dropped > 0 must set Truncated with a warning: %+v", rep)
	}
}

// --- End-to-end tests over real clusters ------------------------------

func traceCfg(proto core.Protocol, nodes int) core.Config {
	return core.Config{
		Nodes:         nodes,
		Protocol:      proto,
		PageSize:      256,
		HeapBytes:     1 << 20,
		AccessTrace:   true,
		TraceCapacity: 1 << 17,
	}
}

func checkApp(t *testing.T, cfg core.Config, a apps.App, verify bool, opt racecheck.Options) *racecheck.Report {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Setup(c); err != nil {
		t.Fatalf("%s setup: %v", a.Name(), err)
	}
	if err := c.Run(a.Run); err != nil {
		t.Fatalf("%s run: %v", a.Name(), err)
	}
	if verify {
		if err := a.Verify(c); err != nil {
			t.Fatalf("%s verify: %v", a.Name(), err)
		}
	}
	rep := racecheck.Check(c.TraceStreams(), opt)
	if rep.Truncated {
		t.Fatalf("%s: trace ring overflowed; raise TraceCapacity\n%s", a.Name(), rep.String())
	}
	return rep
}

// Seeded positive: the false-sharing kernel's byte-disjoint per-node
// counters are a genuine data race at page granularity, which is EC's
// unit of consistency. (Setup+Run only: Verify legitimately fails
// under EC, where barriers carry no coherence.)
func TestFalseShareRacesUnderEC(t *testing.T) {
	rep := checkApp(t, traceCfg(core.EC, 3), apps.NewFalseShare(8, 4), false,
		racecheck.Options{PageGranularity: true})
	if rep.RaceCount == 0 {
		t.Fatalf("EC false sharing not promoted to races:\n%s", rep.String())
	}
}

// Under a multiple-writer protocol the same kernel is only false
// sharing: informational, and the run verifies clean.
func TestFalseShareBenignUnderLRC(t *testing.T) {
	rep := checkApp(t, traceCfg(core.LRC, 3), apps.NewFalseShare(8, 4), true,
		racecheck.Options{})
	if rep.RaceCount != 0 {
		t.Fatalf("byte-disjoint counters flagged as races under LRC:\n%s", rep.String())
	}
	if rep.FalseShareCount == 0 {
		t.Fatalf("false sharing not reported:\n%s", rep.String())
	}
}

// The full fault-free sweep must come back clean: every workload in
// the suite — all eleven apps, kvstore's lock-striped serving
// traffic included — is data-race-free, so any finding is a checker
// false positive (or a real engine bug — either must fail the
// build).
func TestElevenAppsCleanSweep(t *testing.T) {
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC}
	if testing.Short() {
		protos = []core.Protocol{core.SCFixed}
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for _, a := range apps.All(apps.Small) {
				opt := racecheck.Options{ValueCheck: !proto.ReleaseConsistent()}
				rep := checkApp(t, traceCfg(proto, 3), a, true, opt)
				if !rep.Clean() {
					t.Fatalf("%s under %v not clean:\n%s", a.Name(), proto, rep.String())
				}
			}
		})
	}
}

// Seeded negative for the SC value check: BreakCoherence makes the sc
// engine skip one invalidation, leaving one node serving a stale local
// copy. A barrier-separated single-writer loop — coherent under any
// correct engine — must then show violations.
func TestBrokenCoherenceCaught(t *testing.T) {
	for _, chaosRun := range []bool{false, true} {
		name := "fault-free"
		if chaosRun {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			cfg := traceCfg(core.SCFixed, 3)
			if chaosRun {
				plan := chaos.DefaultPlan(3, 7)
				cfg = plan.Arm(core.Config{Nodes: 3, Protocol: core.SCFixed, Seed: 7})
				cfg.PageSize = 256
				cfg.AccessTrace = true
				cfg.TraceCapacity = 1 << 17
			}
			cfg.BreakCoherence = true
			c, err := core.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			x := c.MustAlloc(8)
			err = c.Run(func(n *core.Node) error {
				for r := 0; r < 4; r++ {
					if n.ID() == 0 {
						if err := n.WriteUint64(x, uint64(100+r)); err != nil {
							return err
						}
					}
					if err := n.Barrier(0); err != nil {
						return err
					}
					if _, err := n.ReadUint64(x); err != nil {
						return err
					}
					if err := n.Barrier(1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := racecheck.Check(c.TraceStreams(), racecheck.Options{ValueCheck: true})
			if rep.ViolationCount == 0 {
				t.Fatalf("seeded coherence break not caught:\n%s", rep.String())
			}
		})
	}
}

// FetchStreams against live /trace-shaped endpoints must reproduce the
// direct in-process check.
func TestFetchStreams(t *testing.T) {
	streams := []trace.Stream{
		stream(0, write(0, 1, 0, 8, 0xaa)),
		stream(1, write(1, 1, 0, 8, 0xbb)),
	}
	var servers []*httptest.Server
	var urls []string
	for i := range streams {
		s := streams[i]
		mux := http.NewServeMux()
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			if err := json.NewEncoder(w).Encode(s); err != nil {
				t.Error(err)
			}
		})
		srv := httptest.NewServer(mux)
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	fetched, err := racecheck.FetchStreams(urls)
	if err != nil {
		t.Fatal(err)
	}
	rep := racecheck.Check(fetched, racecheck.Options{})
	if rep.RaceCount != 1 {
		t.Fatalf("fetched streams: races = %d, want 1\n%s", rep.RaceCount, rep.String())
	}

	// A non-200 endpoint must surface as an error, not a decode failure.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no trace here", http.StatusNotFound)
	}))
	defer bad.Close()
	if _, err := racecheck.FetchStreams([]string{bad.URL}); err == nil {
		t.Fatal("404 endpoint fetched without error")
	} else if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error %q does not mention the HTTP status", err)
	}
}

package nodecore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/advisor"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// solo builds a started one-node runtime over an echoEngine (a fault
// just raises the page's protection). hook, if non-nil, runs before
// SetEngine, where the observers are attached in production.
func solo(t testing.TB, heap int64, pageSize int, hook func(*Runtime)) *Runtime {
	t.Helper()
	return soloWith(t, heap, pageSize, &echoEngine{}, hook)
}

func soloWith(t testing.TB, heap int64, pageSize int, eng Engine, hook func(*Runtime)) *Runtime {
	t.Helper()
	net, err := simnet.New(simnet.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := mem.NewTable(heap, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(0, 1, net.Endpoint(0), tbl, &stats.Node{})
	if hook != nil {
		hook(rt)
	}
	rt.SetEngine(eng)
	rt.Start()
	t.Cleanup(func() {
		net.Close()
		rt.Close()
	})
	return rt
}

func withTrace(rt *Runtime) {
	rt.SetTracer(trace.New(0, 1, 1<<12))
	rt.EnableAccessTrace()
}

func withCollector(rt *Runtime) {
	rt.SetAccessCollector(advisor.New(rt.Table().NumPages(), 1))
}

// TestZeroAllocLocalHit is the allocation gate of the hit path: a
// typed access to a valid local page, and a single-page ReadAt/WriteAt
// into a buffer the caller owns, allocate nothing.
func TestZeroAllocLocalHit(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	rt := solo(t, 1<<14, 1024, nil)
	buf := make([]byte, 64)
	if err := rt.WriteAt(0, buf); err != nil { // page 0 -> ReadWrite
		t.Fatal(err)
	}
	var sink uint64
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ReadUint64", func() { v, err := rt.ReadUint64(8); sink += v; check(err) }},
		{"WriteUint64", func() { check(rt.WriteUint64(8, sink)) }},
		{"ReadFloat64", func() { v, err := rt.ReadFloat64(16); sink += uint64(v); check(err) }},
		{"WriteFloat64", func() { check(rt.WriteFloat64(16, 1.5)) }},
		{"ReadAt", func() { check(rt.ReadAt(100, buf)) }},
		{"WriteAt", func() { check(rt.WriteAt(100, buf)) }},
	} {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s on a valid local page allocates %.1f objects/op, want 0", c.name, n)
		}
	}
}

func BenchmarkReadHit(b *testing.B) {
	rt := solo(b, 1<<14, 1024, nil)
	if err := rt.WriteUint64(8, 7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, err := rt.ReadUint64(8)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	if sink != 7*uint64(b.N) {
		b.Fatalf("read %d", sink)
	}
}

// BenchmarkReadHitParallel reads one word of one page from every
// goroutine: a hit that took the page mutex would contend on it, the
// lock-free one shares the page's cache lines read-only.
func BenchmarkReadHitParallel(b *testing.B) {
	rt := solo(b, 1<<14, 1024, nil)
	if err := rt.WriteUint64(8, 7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if v, err := rt.ReadUint64(8); err != nil || v != 7 {
				b.Errorf("read %d, %v", v, err)
				return
			}
		}
	})
}

func BenchmarkWriteHit(b *testing.B) {
	rt := solo(b, 1<<14, 1024, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.WriteUint64(8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTypedAccessorsMatchReadAt checks the typed accessors against
// ReadAt/WriteAt and a plain byte slice, for every page size from the
// smallest up, at aligned, unaligned and page-straddling addresses,
// with and without an observer forcing the general path.
func TestTypedAccessorsMatchReadAt(t *testing.T) {
	for _, ps := range []int{8, 16, 64, 256, 1024, 4096} {
		for _, hook := range []struct {
			name string
			fn   func(*Runtime)
		}{{"plain", nil}, {"traced", withTrace}, {"collected", withCollector}} {
			t.Run(fmt.Sprintf("page%d/%s", ps, hook.name), func(t *testing.T) {
				heap := int64(16 * ps)
				rt := solo(t, heap, ps, hook.fn)
				rng := rand.New(rand.NewSource(int64(ps)))
				shadow := make([]byte, heap)
				rng.Read(shadow)
				if err := rt.WriteAt(0, shadow); err != nil {
					t.Fatal(err)
				}
				addrs := []int64{0, heap - 8, int64(ps) - 4, int64(ps) - 2, int64(ps) - 1, int64(3*ps) - 7}
				for i := 0; i < 200; i++ {
					a := rng.Int63n(heap - 8)
					if i%2 == 0 {
						a &^= 7
					}
					addrs = append(addrs, a)
				}
				for _, a := range addrs {
					checkWord(t, rt, shadow, a, rng.Uint64())
				}
				got := make([]byte, heap)
				if err := rt.ReadAt(0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, shadow) {
					t.Fatal("heap differs from the shadow copy after the typed stores")
				}
			})
		}
	}
}

// checkWord reads the words at a every way there is, requiring all to
// equal shadow, then stores v through one typed accessor (chosen by
// v) and records it in shadow.
func checkWord(t *testing.T, rt *Runtime, shadow []byte, a int64, v uint64) {
	t.Helper()
	le := binary.LittleEndian
	var b [8]byte
	if err := rt.ReadAt(a, b[:]); err != nil {
		t.Fatal(err)
	}
	want64 := le.Uint64(shadow[a:])
	u64, err1 := rt.ReadUint64(a)
	i64, err2 := rt.ReadInt64(a)
	f64, err3 := rt.ReadFloat64(a)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if le.Uint64(b[:]) != want64 || u64 != want64 || uint64(i64) != want64 || math.Float64bits(f64) != want64 {
		t.Fatalf("addr %#x: ReadAt %#x Uint64 %#x Int64 %#x Float64 %#x, want %#x", a, b, u64, i64, math.Float64bits(f64), want64)
	}
	var err error
	switch v % 3 {
	case 0:
		err = rt.WriteUint64(a, v)
	case 1:
		err = rt.WriteInt64(a, int64(v))
	case 2:
		err = rt.WriteFloat64(a, math.Float64frombits(v))
	}
	if err != nil {
		t.Fatal(err)
	}
	le.PutUint64(shadow[a:], v)
}

// littleProgram is a fixed access sequence touching every case: hits,
// first-touch faults, a read-to-write upgrade, never-written memory,
// words straddling pages 0|1 and 2|3, and a multi-page ReadAt.
func littleProgram(t *testing.T, rt *Runtime) {
	t.Helper()
	ps := int64(rt.Table().PageSize())
	check := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(rt.ReadUint64(8))                                      // read fault page 0, zeros
	check(nil, rt.WriteUint64(8, 0x0807060504030201))            // upgrade: write fault page 0
	check(rt.ReadUint64(8))                                      // hit
	check(nil, rt.WriteAt(ps-2, []byte{0xaa, 0xbb, 0xcc, 0xdd})) // straddles 0|1: write fault page 1
	check(nil, rt.ReadAt(ps-2, make([]byte, 4)))                 // straddling hit
	check(nil, rt.WriteFloat64(2*ps+16, 1.5))                    // write fault page 2
	check(rt.ReadFloat64(2*ps + 16))                             // hit
	check(rt.ReadInt64(3*ps - 4))                                // straddles 2|3: read fault page 3
	check(nil, rt.WriteInt64(3*ps+8, -2))                        // upgrade page 3
	check(nil, rt.ReadAt(ps-3, make([]byte, 6)))                 // two chunks, both hits
	check(nil, rt.WriteAt(4*ps+1, []byte{9, 8, 7}))              // write fault page 4
	check(nil, rt.ReadAt(4*ps, make([]byte, int(2*ps)+1)))       // pages 4, 5, 6: two read faults
}

// TestStraddleAndUpgradeCounts pins the counters of littleProgram, and
// that observers — which force the general path — leave them alone.
func TestStraddleAndUpgradeCounts(t *testing.T) {
	var plain stats.Snapshot
	for _, hook := range []struct {
		name string
		fn   func(*Runtime)
	}{{"plain", nil}, {"traced", withTrace}, {"collected", withCollector}} {
		rt := solo(t, 1<<12, 64, hook.fn)
		r0 := rt.Stats().ReadFaults.Load()
		if _, err := rt.ReadUint64(5*64 - 3); err != nil { // straddles 4|5, both invalid
			t.Fatal(err)
		}
		if f, n := rt.Stats().ReadFaults.Load()-r0, rt.Stats().Reads.Load(); f != 2 || n != 1 {
			t.Fatalf("%s: a straddling read of two invalid pages made %d faults and %d reads, want 2 and 1", hook.name, f, n)
		}
		rt = solo(t, 1<<12, 64, hook.fn)
		littleProgram(t, rt)
		s := rt.Stats().Snapshot()
		if hook.fn == nil {
			plain = s
			if s.Reads != 7 || s.Writes != 5 || s.ReadFaults != 4 || s.WriteFaults != 5 {
				t.Fatalf("plain: reads %d writes %d read faults %d write faults %d, want 7 5 4 5", s.Reads, s.Writes, s.ReadFaults, s.WriteFaults)
			}
			continue
		}
		if s.Reads != plain.Reads || s.Writes != plain.Writes || s.ReadFaults != plain.ReadFaults || s.WriteFaults != plain.WriteFaults {
			t.Errorf("%s: reads %d writes %d read faults %d write faults %d differ from the unhooked run's %d %d %d %d", hook.name,
				s.Reads, s.Writes, s.ReadFaults, s.WriteFaults, plain.Reads, plain.Writes, plain.ReadFaults, plain.WriteFaults)
		}
	}
}

// TestAccessTraceSequence pins the EvRead/EvWrite stream of
// littleProgram — one event per page chunk, stamped with the hash of
// the bytes moved — which is what the race checker replays.
func TestAccessTraceSequence(t *testing.T) {
	rt := solo(t, 1<<12, 64, withTrace)
	littleProgram(t, rt)
	type ev struct {
		typ       trace.Type
		page, off int
		b         []byte
	}
	z := func(n int) []byte { return make([]byte, n) }
	f15 := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5))
	p4 := append([]byte{0, 9, 8, 7}, z(60)...)
	want := []ev{
		{trace.EvRead, 0, 8, z(8)},
		{trace.EvWrite, 0, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{trace.EvRead, 0, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{trace.EvWrite, 0, 62, []byte{0xaa, 0xbb}},
		{trace.EvWrite, 1, 0, []byte{0xcc, 0xdd}},
		{trace.EvRead, 0, 62, []byte{0xaa, 0xbb}},
		{trace.EvRead, 1, 0, []byte{0xcc, 0xdd}},
		{trace.EvWrite, 2, 16, f15},
		{trace.EvRead, 2, 16, f15},
		{trace.EvRead, 2, 60, z(4)},
		{trace.EvRead, 3, 0, z(4)},
		{trace.EvWrite, 3, 8, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{trace.EvRead, 0, 61, []byte{0, 0xaa, 0xbb}},
		{trace.EvRead, 1, 0, []byte{0xcc, 0xdd, 0}},
		{trace.EvWrite, 4, 1, []byte{9, 8, 7}},
		{trace.EvRead, 4, 0, p4},
		{trace.EvRead, 5, 0, z(64)},
		{trace.EvRead, 6, 0, z(1)},
	}
	var got []trace.Event
	for _, e := range rt.Tracer().Events() {
		if e.Type == trace.EvRead || e.Type == trace.EvWrite {
			got = append(got, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d access events, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Type != w.typ || int(g.Page) != w.page || g.AccessOff() != w.off || g.AccessLen() != len(w.b) || g.Req != trace.HashBytes(w.b) {
			t.Errorf("event %d: %v page %d off %d len %d hash %#x, want %v page %d off %d len %d hash %#x", i,
				g.Type, g.Page, g.AccessOff(), g.AccessLen(), g.Req, w.typ, w.page, w.off, len(w.b), trace.HashBytes(w.b))
		}
	}
}

// directEngine claims every access, like the central-server engine.
type directEngine struct {
	echoEngine
	reads, writes int
}

func (e *directEngine) DirectRead(int64, []byte) (bool, error)  { e.reads++; return true, nil }
func (e *directEngine) DirectWrite(int64, []byte) (bool, error) { e.writes++; return true, nil }

// TestObserversSeeEveryAccess: with the collector attached each page
// of each access is observed once, and a DirectEngine is offered every
// access, typed or not, while the collector still sees its pages.
func TestObserversSeeEveryAccess(t *testing.T) {
	wantR := []int64{4, 2, 2, 1, 1, 1, 1}
	wantW := []int64{2, 1, 1, 1, 1, 0, 0}
	checkSeen := func(name string, rt *Runtime) {
		t.Helper()
		for pg := range wantR {
			if r, w := rt.collector.Reads(int32(pg), 0), rt.collector.Writes(int32(pg), 0); r != wantR[pg] || w != wantW[pg] {
				t.Errorf("%s, page %d: collector saw %d reads %d writes, want %d %d", name, pg, r, w, wantR[pg], wantW[pg])
			}
		}
	}
	rt := solo(t, 1<<12, 64, withCollector)
	littleProgram(t, rt)
	checkSeen("paged", rt)

	de := &directEngine{}
	rt = soloWith(t, 1<<12, 64, de, withCollector)
	littleProgram(t, rt)
	checkSeen("direct", rt)
	if de.reads != 7 || de.writes != 5 {
		t.Errorf("direct engine was offered %d reads %d writes, want 7 5", de.reads, de.writes)
	}
	if f := rt.Stats().Snapshot().Faults(); f != 0 {
		t.Errorf("%d faults on accesses the direct engine handled", f)
	}
}

// TestWriteHitOnReadOnlyPage: a typed store to a read-only page faults
// exactly once, lands, and leaves the page dirty; later stores hit.
func TestWriteHitOnReadOnlyPage(t *testing.T) {
	rt := solo(t, 1<<12, 64, nil)
	if v, err := rt.ReadUint64(64); err != nil || v != 0 {
		t.Fatalf("never-written word read %d, %v", v, err)
	}
	p := rt.Table().Page(1)
	p.Lock()
	prot, dirty := p.Prot(), p.Dirty()
	p.Unlock()
	if prot != mem.ReadOnly || dirty {
		t.Fatalf("after a read: prot %v dirty %v", prot, dirty)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := rt.WriteUint64(64, i); err != nil {
			t.Fatal(err)
		}
		p.Lock()
		dirty = p.Dirty()
		p.SetDirty(false)
		p.Unlock()
		if f := rt.Stats().WriteFaults.Load(); f != 1 || !dirty {
			t.Fatalf("store %d: %d write faults, dirty %v; want 1, true", i, f, dirty)
		}
	}
	if v, _ := rt.ReadUint64(64); v != 3 {
		t.Fatalf("read back %d", v)
	}
	if s := rt.Stats().Snapshot(); s.Reads != 2 || s.Writes != 3 || s.ReadFaults != 1 {
		t.Fatalf("reads %d writes %d read faults %d, want 2 3 1", s.Reads, s.Writes, s.ReadFaults)
	}
}

// TestOutOfRangePanics: the typed accessors reject a bad address with
// the message ReadAt/WriteAt have always given.
func TestOutOfRangePanics(t *testing.T) {
	const heap = 1 << 12
	rt := solo(t, heap, 64, nil)
	for _, c := range []struct {
		addr int64
		n    int
		fn   func(int64) error
	}{
		{-8, 8, func(a int64) error { _, err := rt.ReadUint64(a); return err }},
		{heap, 8, func(a int64) error { _, err := rt.ReadFloat64(a); return err }},
		{heap - 4, 8, func(a int64) error { return rt.WriteUint64(a, 1) }},
		{heap - 2, 8, func(a int64) error { return rt.WriteInt64(a, 1) }},
		{-1, 8, func(a int64) error { _, err := rt.ReadInt64(a); return err }},
		{heap - 1, 2, func(a int64) error { return rt.ReadAt(a, make([]byte, 2)) }},
		{-1, 2, func(a int64) error { return rt.WriteAt(a, make([]byte, 2)) }},
	} {
		want := fmt.Sprintf("mem: range [%#x,%#x) outside heap [0,%#x)", c.addr, c.addr+int64(c.n), int64(heap))
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("addr %#x len %d: panic %v, want %q", c.addr, c.n, got, want)
				}
			}()
			_ = c.fn(c.addr)
		}()
	}
}

// TestConcurrentHitsAndInvalidations: goroutines increment their own
// words of one page through the typed accessors while a stand-in for a
// protocol handler keeps invalidating the page under its lock. No
// update may be lost, and (under -race) hit path, fault path and
// handler must be ordered by the page mutex alone.
func TestConcurrentHitsAndInvalidations(t *testing.T) {
	rt := solo(t, 1<<12, 64, nil)
	const workers, rounds = 4, 2000
	stop := make(chan struct{})
	invalidator := make(chan struct{})
	go func() {
		defer close(invalidator)
		p := rt.Table().Page(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Lock()
			if !p.LatchBusy() {
				p.SetProt(mem.Invalid)
			}
			p.Unlock()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(addr int64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, err := rt.ReadUint64(addr)
				if err == nil {
					err = rt.WriteUint64(addr, v+1)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(64 + int64(w)*8)
	}
	wg.Wait()
	close(stop)
	<-invalidator
	for w := 0; w < workers; w++ {
		if v, err := rt.ReadUint64(64 + int64(w)*8); err != nil || v != rounds {
			t.Errorf("worker %d's word = %d, %v; want %d", w, v, err, rounds)
		}
	}
	if s := rt.Stats().Snapshot(); s.Reads != workers*rounds+workers || s.Writes != workers*rounds || s.Faults() == 0 {
		t.Errorf("reads %d writes %d faults %d", s.Reads, s.Writes, s.Faults())
	}
}

// TestUnalignedWordAccess: a word 1–7 bytes off alignment, at a page's
// start and ending inside its last whole word, is read and written
// under the page lock — its store is two aligned word merges in one
// version bracket, never an atomic on a misaligned address. It
// round-trips and agrees with ReadAt, and leaves the bytes around it
// alone. Meanwhile a reader loads the two aligned words the store
// overlaps, lock-free: each must show the overlapped bytes of one
// store, never of two, in the order they were written.
func TestUnalignedWordAccess(t *testing.T) {
	const ps = 64
	le := binary.LittleEndian
	for k := int64(1); k <= 7; k++ {
		rt := solo(t, 4*ps, ps, nil)
		shadow := make([]byte, 4*ps)
		for _, a := range []int64{ps + k, 2*ps - 8 - k, 2*ps - 8} {
			for _, v := range []uint64{0x0807060504030201, ^uint64(0), 0} {
				if err := rt.WriteUint64(a, v); err != nil {
					t.Fatal(err)
				}
				le.PutUint64(shadow[a:], v)
				var b [8]byte
				got, err := rt.ReadUint64(a)
				if err == nil {
					err = rt.ReadAt(a, b[:])
				}
				if err != nil || got != v || le.Uint64(b[:]) != v {
					t.Fatalf("offset %d: wrote %#x, ReadUint64 %#x, ReadAt %x (%v)", a, v, got, b, err)
				}
			}
		}
		all := make([]byte, 4*ps)
		if err := rt.ReadAt(0, all); err != nil || !bytes.Equal(all, shadow) {
			t.Fatalf("k=%d: heap %x, want %x (%v)", k, all, shadow, err)
		}

		// Store j in every byte of the word at ps+8+k, j = 1..255, while a
		// reader watches the aligned words at ps+8 and ps+16.
		a := ps + 8 + k
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [2]byte
			for {
				select {
				case <-done:
					return
				default:
				}
				for w, word := range []int64{ps + 8, ps + 16} {
					v, err := rt.ReadUint64(word)
					if err != nil {
						t.Error(err)
						return
					}
					var b [8]byte
					le.PutUint64(b[:], v)
					lo, hi := int(k), 8 // the bytes of word 0 the store covers
					if w == 1 {
						lo, hi = 0, int(k)
					}
					for i := range b {
						want := b[lo] // every covered byte from one store
						if i < lo || i >= hi {
							want = 0
						}
						if b[i] != want || b[lo] < last[w] {
							t.Errorf("k=%d: word %#x holds %x after %#x", k, word, b, last[w])
							return
						}
					}
					last[w] = b[lo]
				}
			}
		}()
		for j := uint64(1); j <= 255; j++ {
			if err := rt.WriteUint64(a, j*0x0101010101010101); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		wg.Wait()
	}
}

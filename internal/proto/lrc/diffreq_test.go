package lrc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

const diffReqPageSize = 256

// diffServer is one homeless lrc engine, node 0 of a two-node simulated
// network, with nothing above it: a test writes and closes intervals
// and serves diff requests by calling the engine, and reads the replies
// node 1 receives.
type diffServer struct {
	e       *Engine
	replies chan *wire.Msg
}

func newDiffServer(tb testing.TB, pages int, barrierGC bool) *diffServer {
	tb.Helper()
	net, err := simnet.New(simnet.Config{Nodes: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(net.Close)
	tbl, err := mem.NewTable(int64(pages)*diffReqPageSize, diffReqPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	rt := nodecore.New(0, 2, net.Endpoint(0), tbl, &stats.Node{})
	s := &diffServer{e: New(rt, barrierGC), replies: make(chan *wire.Msg, 1)}
	rt.SetEngine(s.e)
	s.e.Init()
	if err := net.Endpoint(1).Attach(func(m *wire.Msg) { s.replies <- m }, func() {}); err != nil {
		tb.Fatal(err)
	}
	return s
}

// write stores v into word w of page pg.
func (s *diffServer) write(tb testing.TB, pg mem.PageID, w int, v uint64) {
	if err := s.e.rt.WriteUint64(int64(pg)*diffReqPageSize+int64(w)*8, v); err != nil {
		tb.Fatal(err)
	}
}

// barrier runs a barrier of this node alone: its arrive payload is the
// whole merge. With barrier GC on, the second one cuts what the first
// distributed.
func (s *diffServer) barrier() { s.e.OnBarrierRelease(0, s.e.BarrierArrive(0)) }

// serve has node 0 answer node 1's request for pg's diffs over
// [arg, b] and returns the reply's payload. It may run off the test
// goroutine, so it reports with Errorf.
func (s *diffServer) serve(tb testing.TB, pg mem.PageID, arg, b uint64) []byte {
	s.e.handleDiffReq(&wire.Msg{Kind: wire.KDiffReq, From: 1, Req: 1, Page: pg, Arg: arg, B: b})
	select {
	case m := <-s.replies:
		if m.Kind != wire.KDiffReply || m.Page != pg {
			tb.Errorf("request for page %d answered by %v for page %d", pg, m.Kind, m.Page)
		}
		return m.Data
	case <-time.After(10 * time.Second):
		tb.Errorf("no reply to the request for page %d [%d, %d]", pg, arg, b)
		return nil
	}
}

// replySeqs decodes a diff-list payload into its seqs, in wire order.
func replySeqs(data []byte) ([]uint32, error) {
	var seqs []uint32
	if len(data) == 0 {
		return nil, nil
	}
	d := wire.NewDec(data)
	for n := d.Count(); n > 0 && d.Ok(); n-- {
		seqs = append(seqs, uint32(d.Uvarint()))
		d.Bytes()
	}
	return seqs, d.Done()
}

// ownDiff is one diff the oracle expects node 0 to hold.
type ownDiff struct {
	seq  uint32
	pg   mem.PageID
	diff []byte
}

// TestDiffReqServesExactRange: one writer closes a few hundred
// intervals over a handful of pages; every reply to a random [Arg, B]
// is byte for byte the encoding of what a brute-force filter over all
// own closed intervals gives, in ascending seq order. Then a barrier-GC
// prefix cut runs and more intervals close: the cut-off seqs are gone
// from every reply, and the rest is served as before.
func TestDiffReqServesExactRange(t *testing.T) {
	const pages, words = 6, diffReqPageSize / 8
	s := newDiffServer(t, pages, true)
	rng := rand.New(rand.NewSource(1))
	shadow := make([][]byte, pages)
	for i := range shadow {
		shadow[i] = make([]byte, diffReqPageSize)
	}
	var oracle []ownDiff
	closeSome := func(n int) {
		for ; n > 0; n-- {
			before := make([][]byte, pages)
			for _, pg := range rng.Perm(pages)[:1+rng.Intn(3)] {
				before[pg] = bytes.Clone(shadow[pg])
				for k := 1 + rng.Intn(3); k > 0; k-- {
					w, v := rng.Intn(words), rng.Uint64()|1
					s.write(t, mem.PageID(pg), w, v)
					for b := 0; b < 8; b++ {
						shadow[pg][w*8+b] = byte(v >> (8 * b))
					}
				}
			}
			s.e.closeInterval()
			seq := uint32(len(s.e.log[0]))
			for pg, b := range before {
				if b == nil {
					continue
				}
				if d := mem.CreateDiff(b, shadow[pg]); d != nil {
					oracle = append(oracle, ownDiff{seq, mem.PageID(pg), d})
				}
			}
		}
	}
	check := func(cut uint32) {
		t.Helper()
		top := uint64(len(s.e.log[0]))
		for pg := mem.PageID(0); pg < pages+1; pg++ { // page `pages` is never written
			for trial := 0; trial < 60; trial++ {
				arg, b := uint64(rng.Int63n(int64(top)+3)), uint64(rng.Int63n(int64(top)+3))
				if trial%10 == 0 {
					b += 1 << 32 // beyond every seq, so compared in full width
				}
				var want []seqDiff
				var wantSeqs []uint32
				for _, o := range oracle {
					if o.pg == pg && o.seq > cut && uint64(o.seq) >= arg && uint64(o.seq) <= b {
						want = append(want, seqDiff{o.seq, o.diff})
						wantSeqs = append(wantSeqs, o.seq)
					}
				}
				if got := s.serve(t, pg, arg, b); !bytes.Equal(got, encodeDiffList(want)) {
					seqs, err := replySeqs(got)
					t.Fatalf("page %d [%d, %d] after a cut at %d: got seqs %v (%v), want the diffs of %v",
						pg, arg, b, cut, seqs, err, wantSeqs)
				}
			}
		}
		var held int
		for _, o := range oracle {
			if o.seq > cut {
				held++
			}
		}
		if got := s.e.DiffCacheSize(); got != held {
			t.Fatalf("DiffCacheSize %d after a cut at %d, the oracle holds %d", got, cut, held)
		}
	}

	closeSome(300)
	check(0)
	s.barrier() // distributes 1..300
	closeSome(100)
	s.barrier() // cuts 1..300, distributes 301..400
	closeSome(50)
	check(300)
}

// diffReqLog is a writer with n own intervals: page 0 is written in
// every 64th and pages 1..63 in turn in the others, one word each.
func diffReqLog(tb testing.TB, n int) *diffServer {
	s := newDiffServer(tb, 64, false)
	for i := 1; i <= n; i++ {
		s.write(tb, mem.PageID(i%64), 0, uint64(i))
		s.e.closeInterval()
	}
	return s
}

// serveLastFour requests page 0's last four diffs, a range 256 wide:
// the shape of kv_write_tcp's requests, about 280 intervals wide with
// about four diffs in them.
func serveLastFour(tb testing.TB, s *diffServer) {
	top := uint64(len(s.e.log[0]))
	if seqs, err := replySeqs(s.serve(tb, 0, top-255, top)); err != nil || len(seqs) != 4 {
		tb.Fatalf("the last four writes of page 0 came back as %v (%v)", seqs, err)
	}
}

// BenchmarkDiffReq: a diff request costs a binary search plus the diffs
// it returns, so 64x the own log should not move ns/op. When the
// handler looked up every interval number in the range it scaled with
// the range's width instead.
func BenchmarkDiffReq(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("intervals=%dk", n>>10), func(b *testing.B) {
			s := diffReqLog(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveLastFour(b, s)
			}
		})
	}
}

// TestDiffReqCostIgnoresLogLength is the benchmark's claim as a gate
// with slack: 64x the own log must not cost 8x the time. Best of three
// short runs a side, so a stall in one does not decide it.
func TestDiffReqCostIgnoresLogLength(t *testing.T) {
	best := func(n int) time.Duration {
		s := diffReqLog(t, n)
		fastest := time.Duration(math.MaxInt64)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				serveLastFour(t, s)
			}
			fastest = min(fastest, time.Since(start))
		}
		return fastest
	}
	small, large := best(1<<10), best(1<<16)
	t.Logf("2000 requests: %v at 1k own intervals, %v at 64k", small, large)
	if large > 8*small {
		t.Fatalf("2000 diff requests take %v over 64k own intervals, %v over 1k: serving scales with the log", large, small)
	}
}

// TestDiffReqRacesIntervalClose (for -race): a requester on its own
// goroutine has the handler encode a shared subslice of a page's diffs
// after Unlock, while the writer appends to the same page at each
// interval close and barrier GC cuts its prefix. Every reply stays a
// well-formed ascending list.
func TestDiffReqRacesIntervalClose(t *testing.T) {
	s := newDiffServer(t, 2, true)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seqs, err := replySeqs(s.serve(t, 0, 1, math.MaxUint64))
			for k := 1; err == nil && k < len(seqs); k++ {
				if seqs[k] <= seqs[k-1] {
					err = fmt.Errorf("seq %d after %d", seqs[k], seqs[k-1])
				}
			}
			if err != nil {
				t.Errorf("reply %v: %v", seqs, err)
				return
			}
		}
	}()
	for i := 1; i <= 3000; i++ {
		s.write(t, 0, i%4, uint64(i))
		s.e.closeInterval()
		if i%40 == 0 {
			s.barrier()
		}
	}
	close(stop)
	<-done
}

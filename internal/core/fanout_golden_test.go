package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
)

// The engines' parallel request rounds — a write fault invalidating k
// copy holders, a flush propagating to k sharers, a sequencer updating
// its replicas, a fault fetching diffs from several writers — all go
// through one runtime primitive. These programs are sequenced by the
// single test goroutine, so their traffic is deterministic; the counts
// below were printed by this same file on the commit before the
// engines' own goroutine loops were replaced, and pin that the
// replacement sends the same messages and does the same work. Byte
// counts are written as that commit's figure less 4 per message: the
// v3 frame header dropped a 4-byte length field and nothing else.
//
// The rows that take locks then lost their release messages when locks
// became cached tokens (a release sends nothing; a re-acquire where the
// token is sends nothing). Their fan-out columns did not move; msgs and
// bytes are written as the figure above less the 45-byte header of each
// release, derived message by message next to each program.

const goldenPage = 256

// counts is the part of a cluster's totals a fan-out can move.
type counts struct {
	msgs, bytes, invals, transfers, updates, fetches int64
}

func (c counts) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d}", c.msgs, c.bytes, c.invals, c.transfers, c.updates, c.fetches)
}

func countsOf(s stats.Snapshot) counts {
	return counts{s.MsgsSent, s.BytesSent, s.Invalidations, s.PageTransfers, s.UpdatesApplied, s.DiffFetches}
}

func (c counts) sub(o counts) counts {
	return counts{c.msgs - o.msgs, c.bytes - o.bytes, c.invals - o.invals,
		c.transfers - o.transfers, c.updates - o.updates, c.fetches - o.fetches}
}

func goldenCluster(t *testing.T, proto core.Protocol, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{Nodes: nodes, Protocol: proto, PageSize: goldenPage, HeapBytes: 64 * goldenPage})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// settled returns the cluster's counts once they stop moving: an op
// returns when its caller is done, which can be a moment before the
// last confirmation it triggered is sent.
func settled(c *core.Cluster) counts {
	prev := countsOf(c.TotalStats())
	for {
		time.Sleep(2 * time.Millisecond)
		cur := countsOf(c.TotalStats())
		if cur == prev {
			return cur
		}
		prev = cur
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, n *core.Node, addr int64) {
	t.Helper()
	_, err := n.ReadUint64(addr)
	must(t, err)
}

// locked writes v at addr on n inside lock's critical section.
func locked(t *testing.T, n *core.Node, lock int32, addr int64, v uint64) {
	t.Helper()
	must(t, n.Acquire(lock))
	must(t, n.WriteUint64(addr, v))
	must(t, n.Release(lock))
}

// others lists k nodes of a 5-node cluster that are none of skip.
func others(k int, skip ...int) []int {
	var out []int
	for i := 0; len(out) < k; i++ {
		skipped := false
		for _, s := range skip {
			skipped = skipped || s == i
		}
		if !skipped {
			out = append(out, i)
		}
	}
	return out
}

// scWriteOverCopyholders: for k = 0, 1, 3, page k (owner and manager
// node k) is read by k other nodes and then written by node 4, whose
// fault invalidates exactly those k copies.
//
// sc-fixed: page k's manager is its owner, node k, so a request's
// manager step queues it there and the owner answers; nothing confirms.
// sc-dynamic: every hint is exact, so each request goes to node k
// itself and costs the same.
//
//	k=0: 4 writes (4->0 req, 0->4 grant)                          = 2
//	k=1: 0 reads (0->1, 1->0); 4 writes (4->1, inval 1->0,
//	     ack 0->1, 1->4 grant)                                    = 6
//	k=3: 0, 1, 2 read (r->3, 3->r each); 4 writes (4->3,
//	     3 invals, 3 acks, 3->4)                                  = 14
//
// 22 messages; the 7 grants each carry the page. The basic manager
// sent these plus a confirmation to node k after each grant, a bare
// 45-byte header each.
//
// sc-central: node 0 manages every page; each request goes there and
// is forwarded to page k's owner unless that is node 0. Node 0's own
// requests reach it as self-deliveries, which are not messages.
//
//	k=0: 4 writes (4->0, 0->4)                                    = 2
//	k=1: 0 reads (0->1 fwd, 1->0); 4 writes (4->0, 0->1 fwd,
//	     inval 1->0, ack 0->1, 1->4)                              = 7
//	k=3: 0 reads (0->3 fwd, 3->0); 1 and 2 read (r->0, 0->3 fwd,
//	     3->r each); 4 writes (4->0, 0->3 fwd, 3 invals, 3 acks,
//	     3->4)                                                    = 17
//
// 26 messages: the 22 above plus a forward for each of the four
// requests that cross to node 0 for a page it does not own. Every
// message is a bare 45-byte header but for the 7 grants' 256 bytes.
func scWriteOverCopyholders(t *testing.T, proto core.Protocol) counts {
	c := goldenCluster(t, proto, 5)
	for _, k := range []int{0, 1, 3} {
		addr := int64(k * goldenPage)
		for _, r := range others(k, k, 4) {
			read(t, c.Node(r), addr)
		}
		must(t, c.Node(4).WriteUint64(addr, uint64(k)+1))
	}
	return settled(c)
}

// ercFlushOverSharers: for k = 0, 1, 3, page k (home node k) is cached
// by k other nodes, then written under a lock and flushed by node 4
// (the home propagates to the k sharers), then by the home itself (the
// self-homed propagation, now to k+1 sharers under the update flavor).
//
// Lock 1 is managed by node 1, where its token starts, and passes
// 4, 0, 4, 1, 4, 3. Each hand-off is a request to node 1, node 1's
// forward to the token's owner unless that is node 1 itself, and the
// owner's grant; a node 1 request is a self-delivery, not a message.
//
//	k=0: 4 (4->1, 1->4) + 0 (0->1, 1->4, 4->0)  = 5
//	k=1: 4 (4->1, 1->0, 0->4) + 1 (1->4, 4->1)  = 5
//	k=3: 4 (4->1, 1->4) + 3 (3->1, 1->4, 4->3)  = 5
//
// 15 lock messages, none with a payload. The release-to-manager
// protocol sent the same 15 (its manager forwarded each request to the
// last releaser, here always the last holder) plus a release to node 1
// after each of the five holds outside node 1: 5 messages, 5 * 45
// bytes.
func ercFlushOverSharers(t *testing.T, proto core.Protocol) counts {
	c := goldenCluster(t, proto, 5)
	for _, k := range []int{0, 1, 3} {
		addr := int64(k * goldenPage)
		for _, r := range others(k, k, 4) {
			read(t, c.Node(r), addr)
		}
		locked(t, c.Node(4), 1, addr, 7)
		locked(t, c.Node(k), 1, addr+8, 8)
	}
	return settled(c)
}

func TestFanoutGoldenCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) counts
		want counts
	}{
		{"sc-central", func(t *testing.T) counts { return scWriteOverCopyholders(t, core.SCCentral) }, counts{26, 45*26 + 256*7, 4, 7, 0, 0}},
		{"sc-fixed", func(t *testing.T) counts { return scWriteOverCopyholders(t, core.SCFixed) }, counts{29 - 7, 3213 - 4*29 - 45*7, 4, 7, 0, 0}},
		{"sc-dynamic", func(t *testing.T) counts { return scWriteOverCopyholders(t, core.SCDynamic) }, counts{29 - 7, 3213 - 4*29 - 45*7, 4, 7, 0, 0}},
		{"sc-broadcast", func(t *testing.T) counts { return scWriteOverCopyholders(t, core.SCBroadcast) }, counts{71, 5271 - 4*71, 4, 7, 0, 0}},
		{"erc-invalidate", func(t *testing.T) counts { return ercFlushOverSharers(t, core.ERCInvalidate) }, counts{61 - 5, 4790 - 4*61 - 45*5, 7, 7, 3, 0}},
		{"erc-update", func(t *testing.T) counts { return ercFlushOverSharers(t, core.ERCUpdate) }, counts{69 - 5, 5215 - 4*69 - 45*5, 0, 7, 14, 0}},
		{"erc-invalidate-rescue", ercRescue, counts{18, 1912 - 4*18, 2, 4, 2, 0}},
		{"full-replication", replicatedWrites, counts{12, 636 - 4*12, 0, 0, 4, 0}},
		{"lrc", func(t *testing.T) counts { return lrcFaultOverWriters(t, core.LRC) }, counts{19 - 4, 1109 - 4*19 - 45*4, 2, 0, 3, 3}},
		{"hlrc", func(t *testing.T) counts { return lrcFaultOverWriters(t, core.HLRC) }, counts{19 - 4, 1606 - 4*19 - 45*4, 2, 2, 3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("counts {msgs, bytes, invalidations, page transfers, updates applied, diff fetches} = %v, want %v", got, tc.want)
			}
		})
	}
}

// ercRescue: nodes 1 and 2 write disjoint words of page 0 (home node 0)
// under different locks; node 2 releases first, so the home's
// invalidation of node 1 comes back carrying node 1's unflushed diff,
// which the home merges before invalidating the flusher too. Each lock
// is taken by its own manager, where its token starts: no lock message
// under either lock protocol.
func ercRescue(t *testing.T) counts {
	c := goldenCluster(t, core.ERCInvalidate, 3)
	n1, n2 := c.Node(1), c.Node(2)
	must(t, n1.Acquire(1))
	must(t, n1.WriteUint64(0, 111))
	locked(t, n2, 2, 8, 222)
	must(t, n1.Release(1))
	for i := 0; i < 3; i++ {
		a, err := c.Node(i).ReadUint64(0)
		must(t, err)
		b, err := c.Node(i).ReadUint64(8)
		must(t, err)
		if a != 111 || b != 222 {
			t.Errorf("node %d reads (%d, %d), want (111, 222)", i, a, b)
		}
	}
	return settled(c)
}

// replicatedWrites: one write through node 0's sequencer on clusters
// of 1, 2 and 4 nodes updates 0, 1 and 3 other replicas.
func replicatedWrites(t *testing.T) counts {
	var sum counts
	for _, n := range []int{1, 2, 4} {
		c := goldenCluster(t, core.FullReplication, n)
		must(t, c.Node(n-1).WriteUint64(0, 5))
		got := settled(c)
		sum = counts{sum.msgs + got.msgs, sum.bytes + got.bytes, sum.invals + got.invals,
			sum.transfers + got.transfers, sum.updates + got.updates, sum.fetches + got.fetches}
	}
	return sum
}

// lrcFaultOverWriters: for w = 0, 1, 2, page w is written by w nodes
// (disjoint words, one lock each); node 0 then acquires those locks,
// learning w write notices for the page, and reads it — one fault that
// fetches from w writers at once.
//
// Lock traffic (lock l is managed by node l mod 4, where its token
// starts):
//
//	w=1: lock 11: node 1 (1->3, 3->1), node 0 (0->3, 3->1, 1->0)  = 5
//	w=2: lock 21: node 1 local, node 0 (0->1, 1->0)               = 2
//	     lock 22: node 2 local, node 0 (0->2, 2->0)               = 2
//
// 9 messages. The release-to-manager protocol sent the same requests,
// forwards and grants plus the four releases not self-delivered (node
// 1's and node 0's of lock 11, node 0's of locks 21 and 22), each a
// bare 45-byte header.
func lrcFaultOverWriters(t *testing.T, proto core.Protocol) counts {
	c := goldenCluster(t, proto, 4)
	for _, w := range []int{0, 1, 2} {
		addr := int64(w * goldenPage)
		for i := 1; i <= w; i++ {
			locked(t, c.Node(i), int32(10*w+i), addr+int64(8*i), uint64(i))
		}
		for i := 1; i <= w; i++ {
			must(t, c.Node(0).Acquire(int32(10*w+i)))
		}
		read(t, c.Node(0), addr)
		for i := 1; i <= w; i++ {
			must(t, c.Node(0).Release(int32(10*w+i)))
		}
	}
	return settled(c)
}

// TestBroadcastProbeEmptyRound forces the one fan-out outcome the
// programs above cannot: a broadcast probe round in which every node
// answers not-owner (an ownership transfer caught mid-flight). The
// owner's own record is pointed elsewhere until the first round has
// been answered; the requester backs off and the next round finds it.
// Each empty round must cost exactly four probes and four not-owner
// replies, whatever their number.
func TestBroadcastProbeEmptyRound(t *testing.T) {
	round, found := counts{msgs: 8, bytes: 416 - 4*8}, counts{msgs: 9, bytes: 673 - 4*9, transfers: 1}
	c := goldenCluster(t, core.SCBroadcast, 5)
	owner := c.Node(2).Runtime().Table().Page(mem.PageID(2))
	setOwner := func(id int32) {
		owner.Lock()
		owner.Owner = id
		owner.Unlock()
	}
	setOwner(3)
	done := make(chan error, 1)
	go func() { done <- c.Node(4).WriteUint64(2*goldenPage, 9) }()
	for countsOf(c.TotalStats()).msgs < round.msgs {
		time.Sleep(50 * time.Microsecond)
	}
	setOwner(2)
	must(t, <-done)
	got := settled(c)
	rest := got.sub(found)
	rounds := rest.msgs / round.msgs
	if rounds < 1 || rest != (counts{msgs: rounds * round.msgs, bytes: rounds * round.bytes}) {
		t.Errorf("probe cost %v: not the finding round %v plus a whole number (>= 1) of empty rounds %v", got, found, round)
	}
}

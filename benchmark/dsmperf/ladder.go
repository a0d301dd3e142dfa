package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The layer ladder: what one shared access costs at each layer, bottom
// to top, each rung one public function of one layer timed alone at a
// fixed iteration count. A rung's value is the median of batches
// batches, so a burst of host interference spoils at most two of them.
const batches = 5

// timed runs fn (which performs iters operations) batches times and
// returns the median time and the median heap allocations per
// operation.
func timed(iters int, fn func() error) (ns, allocs float64, err error) {
	var nss, all []float64
	for b := 0; b < batches; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(iters))
		all = append(all, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(nss), median(all), nil
}

// loop turns a per-operation body into a batch.
func loop(iters int, op func(i int) error) func() error {
	return func() error {
		for i := 0; i < iters; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		return nil
	}
}

const ladderPage = 1024

// ladder measures every rung. smoke divides the iteration counts by
// fifty.
func ladder(smoke bool) (map[string]float64, error) {
	scale := func(n int) int {
		if smoke {
			return max(n/50, 20)
		}
		return n
	}
	out := map[string]float64{}
	steps := []func(scale func(int) int, out map[string]float64) error{
		memRungs, wireRungs, transportRungs, hitRungs, syncRungs, faultRungs,
	}
	for _, step := range steps {
		if err := step(scale, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func memRungs(scale func(int) int, out map[string]float64) error {
	tbl, err := mem.NewTable(1<<20, ladderPage)
	if err != nil {
		return err
	}
	n := scale(2_000_000)
	var chunks []mem.Chunk
	ns, allocs, _ := timed(n, loop(n, func(i int) error {
		chunks = tbl.Split(int64(i&1023)*8, 8)
		return nil
	}))
	if len(chunks) != 1 {
		return fmt.Errorf("mem.Split of an aligned word gave %d chunks", len(chunks))
	}
	out["mem.split_ns"], out["mem.split_allocs"] = ns, allocs

	p := tbl.Page(3)
	p.Lock()
	p.Install(make([]byte, ladderPage), mem.ReadWrite)
	p.Unlock()
	var word [8]byte
	ns, _, _ = timed(n, loop(n, func(i int) error {
		p.Lock()
		p.ReadInto(word[:], (i&127)*8)
		p.Unlock()
		return nil
	}))
	out["mem.page_read_ns"] = ns

	// A 1 KiB page with a tenth of its bytes changed, in 8-byte runs.
	base, cur := make([]byte, ladderPage), make([]byte, ladderPage)
	for off := 0; off < ladderPage; off += 80 {
		for i := off; i < off+8; i++ {
			cur[i] = byte(i) | 1
		}
	}
	n = scale(200_000)
	var diff []byte
	ns, _, _ = timed(n, loop(n, func(int) error {
		diff = mem.AppendDiff(diff[:0], base, cur)
		return nil
	}))
	out["mem.diff_create_ns"] = ns
	dst := make([]byte, ladderPage)
	ns, _, err = timed(n, loop(n, func(int) error { return mem.ApplyDiff(dst, diff) }))
	if err != nil {
		return err
	}
	if string(dst) != string(cur) {
		return fmt.Errorf("mem.ApplyDiff did not reproduce the page")
	}
	out["mem.diff_apply_ns"] = ns
	return nil
}

func wireRungs(scale func(int) int, out map[string]float64) error {
	page := &wire.Msg{Kind: wire.KReadGrant, From: 1, To: 0, Req: 7, Page: 3, Data: make([]byte, ladderPage)}
	n := scale(500_000)
	var buf []byte
	ns, _, _ := timed(n, loop(n, func(int) error {
		buf = page.Encode(buf[:0])
		return nil
	}))
	out["wire.encode_ns"] = ns
	var m wire.Msg
	ns, _, err := timed(n, loop(n, func(int) error { return wire.DecodeInto(&m, buf) }))
	if err != nil {
		return err
	}
	if m.Req != page.Req || len(m.Data) != ladderPage {
		return fmt.Errorf("wire.DecodeInto did not reproduce the message")
	}
	out["wire.decode_ns"] = ns

	// A batch frame of eight header-only messages (lock traffic).
	small := make([]*wire.Msg, 8)
	for i := range small {
		small[i] = &wire.Msg{Kind: wire.KLockRel, To: 1, Lock: int32(i)}
	}
	ns, _, _ = timed(n, loop(n, func(int) error {
		buf = wire.PackBatch(buf[:0], small)
		return nil
	}))
	out["wire.batch_pack_ns"] = ns
	return nil
}

// oneWay times Endpoint.Send on one node to the message's arrival on
// the other's Recv channel.
func oneWay(iters int, from, to transport.Endpoint) (float64, error) {
	m := &wire.Msg{Kind: wire.KAck, To: to.ID()}
	send := func(i int) error {
		m.Req = uint64(i)
		if err := from.Send(m); err != nil {
			return err
		}
		select {
		case got, ok := <-to.Recv():
			if !ok || got.Req != m.Req {
				return fmt.Errorf("one-way message %d did not arrive", i)
			}
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("one-way message %d timed out", i)
		}
	}
	if err := send(0); err != nil { // dials, on TCP
		return 0, err
	}
	ns, _, err := timed(iters, loop(iters, send))
	return us(ns), err
}

func transportRungs(scale func(int) int, out map[string]float64) error {
	net, err := simnet.New(simnet.Config{Nodes: 2})
	if err != nil {
		return err
	}
	defer net.Close()
	if out["simnet.oneway_us"], err = oneWay(scale(20_000), net.Endpoint(0), net.Endpoint(1)); err != nil {
		return err
	}
	// The bed's runtimes would consume the messages, so the TCP rung
	// uses two bare transports.
	trs, err := tcpTransports(2, 0)
	if err != nil {
		return err
	}
	defer trs[0].Close()
	defer trs[1].Close()
	out["tcp.oneway_us"], err = oneWay(scale(10_000), trs[0].Endpoint(0), trs[1].Endpoint(1))
	return err
}

func hitRungs(scale func(int) int, out map[string]float64) error {
	c, err := core.NewCluster(core.Config{Nodes: 1, PageSize: ladderPage})
	if err != nil {
		return err
	}
	defer c.Close()
	addr, n0 := c.MustAlloc(8), c.Node(0)
	n := scale(2_000_000)
	ns, _, err := timed(n, loop(n, func(i int) error { return n0.WriteUint64(addr, uint64(i)) }))
	if err != nil {
		return err
	}
	out["core.write_hit_ns"] = ns
	var v uint64
	ns, allocs, err := timed(n, loop(n, func(int) (err error) {
		v, err = n0.ReadUint64(addr)
		return err
	}))
	if err != nil {
		return err
	}
	if v != uint64(n-1) {
		return fmt.Errorf("local hit read %d, wrote %d", v, n-1)
	}
	out["core.read_hit_ns"], out["core.read_hit_allocs"] = ns, allocs
	return nil
}

// lockPair times an uncontended Acquire+Release of lock id on node n.
func lockPair(iters int, n *core.Node, id int32) (float64, error) {
	ns, _, err := timed(iters, loop(iters, func(int) error {
		if err := n.Acquire(id); err != nil {
			return err
		}
		return n.Release(id)
	}))
	return us(ns), err
}

func syncRungs(scale func(int) int, out map[string]float64) error {
	if err := lockRungs(scale, out, false); err != nil {
		return err
	}
	if err := lockRungs(scale, out, true); err != nil {
		return err
	}
	for _, nodes := range []int{2, 4} {
		v, err := barrierRung(scale(5_000), nodes)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("dsync.barrier_us.n%d", nodes)] = v
	}
	return nil
}

// lockRungs times uncontended locks on a two-node bed. Lock id's
// manager is node id mod N, so for node 0 lock 0 is local and lock 1
// is one nodecore.Call round trip away.
func lockRungs(scale func(int) int, out map[string]float64, overTCP bool) (err error) {
	b, err := newBed(core.Config{Nodes: 2}, overTCP)
	if err != nil {
		return err
	}
	defer b.close()
	n0, n1 := b.nodes[0], b.nodes[1]
	if overTCP {
		out["dsync.lock_remote_us.tcp"], err = lockPair(scale(5_000), n0, 1)
		return err
	}
	if out["dsync.lock_local_us"], err = lockPair(scale(20_000), n0, 0); err != nil {
		return err
	}
	if out["dsync.lock_remote_us.sim"], err = lockPair(scale(10_000), n0, 1); err != nil {
		return err
	}
	// Hand-off: the two nodes take the lock in turn, so every grant
	// comes by way of the other node's release.
	n := scale(5_000)
	ns, _, err := timed(2*n, loop(n, func(int) error {
		for _, node := range []*core.Node{n0, n1} {
			if err := node.Acquire(2); err != nil {
				return err
			}
			if err := node.Release(2); err != nil {
				return err
			}
		}
		return nil
	}))
	out["dsync.lock_handoff_us"] = us(ns)
	return err
}

// barrierRung times one barrier episode among nodes simulated nodes.
func barrierRung(iters, nodes int) (float64, error) {
	c, err := core.NewCluster(core.Config{Nodes: nodes})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ns, _, err := timed(iters, func() error {
		return c.Run(func(node *core.Node) error {
			for i := 0; i < iters; i++ {
				if err := node.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return us(ns), err
}

func faultRungs(scale func(int) int, out map[string]float64) error {
	for _, p := range []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC} {
		rd, wr, err := faultRung(scale(2_000), p)
		if err != nil {
			return fmt.Errorf("%v: %w", p, err)
		}
		out["proto."+p.String()+".read_fault_us"] = rd
		out["proto."+p.String()+".write_fault_us"] = wr
	}
	return nil
}

// faultRung bounces one page between two nodes under protocol p. Node
// 0 writes word A; node 1 reads it and then writes word B, which is
// what makes node 0's copy stale again under the multiple-writer
// protocols; each node works inside the same lock. The timed accesses
// are node 0's write and node 1's read, each on a page the other
// node's last write invalidated, so each is the protocol's whole
// fault service (ownership transfer, home fetch, or diff fetch and
// twin) with the lock traffic outside the timing. The page's manager
// or home (page id mod N) is a third node, the general case: with two
// nodes one of them would be the home, whose accesses never fault.
func faultRung(iters int, p core.Protocol) (readUs, writeUs float64, err error) {
	c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: p, PageSize: ladderPage})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	base, err := c.AllocPage(3 * ladderPage)
	if err != nil {
		return 0, 0, err
	}
	addr := base + 2*ladderPage // page 2: managed by node 2
	// locked times fn on node n inside lock 1.
	locked := func(n *core.Node, fn func() error) (time.Duration, error) {
		if err := n.Acquire(1); err != nil {
			return 0, err
		}
		t := time.Now()
		err := fn()
		d := time.Since(t)
		if err != nil {
			return 0, err
		}
		return d, n.Release(1)
	}
	n0, n1 := c.Node(0), c.Node(1)
	var readNs, writeNs []float64
	for b := 0; b < batches; b++ {
		var rd, wr time.Duration
		for i := 0; i < iters; i++ {
			want := uint64(b*iters + i + 1)
			d, err := locked(n0, func() error { return n0.WriteUint64(addr, want) })
			if err != nil {
				return 0, 0, err
			}
			wr += d
			var got uint64
			d, err = locked(n1, func() (err error) {
				got, err = n1.ReadUint64(addr)
				return err
			})
			if err == nil {
				_, err = locked(n1, func() error { return n1.WriteUint64(addr+8, want) })
			}
			if err != nil {
				return 0, 0, err
			}
			if got != want {
				return 0, 0, fmt.Errorf("node 1 read %d after node 0 wrote %d", got, want)
			}
			rd += d
		}
		readNs = append(readNs, float64(rd.Nanoseconds())/float64(iters))
		writeNs = append(writeNs, float64(wr.Nanoseconds())/float64(iters))
	}
	total := int64(batches * iters)
	if st := c.Stats(); st[1].ReadFaults < total || st[0].WriteFaults < total {
		return 0, 0, fmt.Errorf("%d read faults on node 1 and %d write faults on node 0 in %d bounces: the page did not bounce",
			st[1].ReadFaults, st[0].WriteFaults, total)
	}
	return us(median(readNs)), us(median(writeNs)), nil
}

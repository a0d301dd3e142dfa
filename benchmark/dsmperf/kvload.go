package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
)

// slotBuf is the scratch a kv.Store call needs (one 32-byte slot).
const slotBuf = 32

// kvLoad drives kv.Store from nodes 0..clients-1, one closed loop
// each; the other nodes only serve (they manage locks and own pages).
type kvLoad struct {
	w       workload
	seed    int64
	samples int
	stores  []*kv.Store    // one per cluster of the bed
	streams [][]loadgen.Op // one per client
	pos     [clients]int   // ops each client has issued so far
	ends    [clients][]int64
}

func newKVLoad(w workload, seed int64, samples int) *kvLoad {
	return &kvLoad{w: w, seed: seed, samples: samples}
}

func (k *kvLoad) newStore() *kv.Store {
	return kv.New(kv.Params{Keys: k.w.keys, Stripes: k.w.stripes})
}

func (k *kvLoad) prepare(b *bed) error {
	err := b.each(func(c *core.Cluster) error {
		s := k.newStore()
		k.stores = append(k.stores, s)
		return s.Setup(c)
	})
	if err != nil {
		return err
	}
	k.streams = make([][]loadgen.Op, clients)
	for id := range k.streams {
		gen, err := loadgen.New(loadgen.Config{
			Seed: k.seed, Node: id, Nodes: k.w.cfg.Nodes,
			Keys: k.w.keys, Ops: streamLen,
			Dist: k.w.dist, Theta: k.w.theta, Mix: k.w.mix,
		})
		if err != nil {
			return err
		}
		k.streams[id] = gen.Stream()
		k.ends[id] = touched(k.samples)
	}
	return nil
}

// store returns the kv.Store laid out on node n's cluster.
func (k *kvLoad) store(n *core.Node) *kv.Store {
	if len(k.stores) == 1 {
		return k.stores[0]
	}
	return k.stores[n.ID()]
}

func apply(s *kv.Store, n *core.Node, op loadgen.Op, buf []byte) error {
	switch op.Kind {
	case loadgen.Get:
		_, _, err := s.Get(n, op.Key, buf)
		return err
	case loadgen.Put:
		return s.Put(n, op.Key, op.Val, buf)
	default:
		return s.Delete(n, op.Key, buf)
	}
}

func (k *kvLoad) warm(b *bed) error {
	return b.run(func(n *core.Node) error {
		id := n.ID()
		if id >= clients {
			return nil
		}
		s, ops, buf := k.store(n), k.streams[id], make([]byte, slotBuf)
		for i := 0; i < k.w.warmOps; i++ {
			if err := apply(s, n, ops[k.pos[id]%len(ops)], buf); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
			k.pos[id]++
		}
		return nil
	})
}

// maxFailed ends a client's loop early: after this many failed ops the
// run is already lost and the remaining time would be spent in
// timeouts.
const maxFailed = 100

func (k *kvLoad) measure(b *bed, d time.Duration, _ bool) (*window, error) {
	w := &window{ends: make([][]int64, clients), kinds: make([][]loadgen.Op, clients), first: k.pos}
	var failed [clients]int
	bufs := [clients][]byte{}
	for id := range bufs {
		bufs[id] = make([]byte, slotBuf)
	}
	t0 := time.Now()
	err := b.run(func(n *core.Node) error {
		id := n.ID()
		if id >= clients {
			return nil
		}
		// Everything the loop touches is allocated above: the driver
		// adds no allocation and no shared lock to an op.
		s, ops, ends, buf := k.store(n), k.streams[id], k.ends[id], bufs[id]
		pos, i := k.pos[id], 0
		for i < len(ends) {
			if err := apply(s, n, ops[pos%len(ops)], buf); err != nil {
				if failed[id]++; failed[id] >= maxFailed {
					return fmt.Errorf("client %d: %d ops failed, last: %w", id, failed[id], err)
				}
			}
			pos++
			now := time.Since(t0)
			ends[i] = int64(now)
			i++
			if now >= d {
				break
			}
		}
		k.pos[id] = pos
		w.ends[id] = ends[:i]
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id := range w.ends {
		w.ops += len(w.ends[id])
		w.failed += failed[id]
		w.kinds[id] = k.streams[id]
	}
	return w, nil
}

// check replays the writes both clients issued, one client after the
// other, on a fresh one-node fault-free cluster, where no coherence
// protocol runs, and requires (a) the measured cluster's checksum to
// equal the replay's and (b) every key's (live, version) on the replay
// to equal a count made from the op streams alone. Each key is written
// by one client only, so the final image does not depend on how the
// two clients interleaved.
func (k *kvLoad) check(b *bed) error {
	got, err := k.stores[0].Checksum(b.nodes[0])
	if err != nil {
		return fmt.Errorf("kv: checksum of the measured cluster: %w", err)
	}
	ref, err := core.NewCluster(core.Config{Nodes: 1})
	if err != nil {
		return err
	}
	defer ref.Close()
	rs, n0, buf := k.newStore(), ref.Node(0), make([]byte, slotBuf)
	if err := rs.Setup(ref); err != nil {
		return err
	}
	type state struct {
		live    bool
		version uint64
	}
	want := make([]state, k.w.keys)
	for id, ops := range k.streams {
		for i := 0; i < k.pos[id]; i++ {
			op := ops[i%len(ops)]
			if op.Kind == loadgen.Get {
				continue
			}
			if err := apply(rs, n0, op, buf); err != nil {
				return fmt.Errorf("kv: replay: %w", err)
			}
			want[op.Key].live = op.Kind == loadgen.Put
			want[op.Key].version++
		}
	}
	for key, st := range want {
		live, version, err := rs.Get(n0, uint64(key), buf)
		if err != nil {
			return fmt.Errorf("kv: replay get: %w", err)
		}
		if live != st.live || version != st.version {
			return fmt.Errorf("kv: replay key %d is (live=%v, version=%d), the streams say (live=%v, version=%d)",
				key, live, version, st.live, st.version)
		}
	}
	refSum, err := rs.Checksum(n0)
	if err != nil {
		return err
	}
	if got != refSum {
		return fmt.Errorf("kv: checksum %#x on the measured cluster, %#x on the sequential replay", got, refSum)
	}
	return nil
}

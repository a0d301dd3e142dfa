package main

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// bed is one cluster under test. On the simulator it is a single
// core.Cluster hosting every node; on TCP it is one single-node
// core.Cluster per node, each behind its own tcp.Transport on a
// loopback socket, the shape a multi-process deployment has.
type bed struct {
	clusters []*core.Cluster
	nodes    []*core.Node // by node id
}

// newBed builds and starts the cluster described by cfg.
func newBed(cfg core.Config, overTCP bool) (*bed, error) {
	if !overTCP {
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		b := &bed{clusters: []*core.Cluster{c}}
		for i := 0; i < cfg.Nodes; i++ {
			b.nodes = append(b.nodes, c.Node(i))
		}
		return b, nil
	}
	trs, err := tcpTransports(cfg.Nodes, cfg.Digest())
	if err != nil {
		return nil, err
	}
	b := &bed{}
	for i, tr := range trs {
		c, err := core.NewDistributedNode(cfg, tr, i)
		if err != nil {
			for _, tr := range trs[i:] {
				tr.Close()
			}
			b.close()
			return nil, err
		}
		b.clusters = append(b.clusters, c)
		b.nodes = append(b.nodes, c.Node(i))
	}
	return b, nil
}

// tcpTransports opens n listening transports on loopback sockets that
// know each other's addresses. The caller closes them.
func tcpTransports(n int, digest uint64) ([]*tcp.Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen for node %d: %w", i, err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*tcp.Transport, n)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{Self: transport.NodeID(i), Addrs: addrs, Listener: lns[i], ConfigDigest: digest})
		if err != nil {
			// Transports own their listeners; the rest are still ours.
			for _, tr := range trs[:i] {
				tr.Close()
			}
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, fmt.Errorf("tcp transport for node %d: %w", i, err)
		}
		trs[i] = tr
	}
	return trs, nil
}

// each calls fn once per cluster (shared set-up such as allocation:
// every TCP node computes the same layout independently).
func (b *bed) each(fn func(c *core.Cluster) error) error {
	for _, c := range b.clusters {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// run executes fn once per node, concurrently, through Cluster.Run (so
// a configured watchdog is armed), and returns the first error.
func (b *bed) run(fn func(n *core.Node) error) error {
	errs := make([]error, len(b.clusters))
	var wg sync.WaitGroup
	for i, c := range b.clusters {
		wg.Add(1)
		go func(i int, c *core.Cluster) {
			defer wg.Done()
			errs[i] = c.Run(fn)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshot sums every node's counters.
func (b *bed) snapshot() stats.Snapshot {
	var total stats.Snapshot
	for _, n := range b.nodes {
		total = total.Add(n.Runtime().Stats().Snapshot())
	}
	return total
}

func (b *bed) close() {
	for _, c := range b.clusters {
		c.Close()
	}
}

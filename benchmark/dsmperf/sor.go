package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SOR grid: one 128-float64 row is one 1024-byte page.
const (
	sorRows = 128
	sorCols = 128
)

// sorLoad is red-black successive over-relaxation, the kernel owned by
// the benchmark so that a change to internal/apps cannot move the
// numbers. Nodes own horizontal bands; one op is one node's half-sweep:
// its band update of one colour, then a barrier.
type sorLoad struct {
	grid    int64
	done    int // half-sweeps completed so far (all nodes agree)
	warmOps int
	samples int
}

func newSORLoad(w workload, samples int) *sorLoad {
	return &sorLoad{warmOps: w.warmOps, samples: samples}
}

func sorInitial(r, c int) float64 {
	switch {
	case r == 0:
		return 1
	case r == sorRows-1:
		return 2
	case c == 0 || c == sorCols-1:
		return 0.5
	}
	return 0
}

func (s *sorLoad) cell(r, c int) int64 { return s.grid + int64(r*sorCols+c)*8 }

// sorBand is node id's half-open range of rows.
func sorBand(nodes, id int) (lo, hi int) {
	per := sorRows / nodes
	lo, hi = id*per, (id+1)*per
	if id == nodes-1 {
		hi = sorRows
	}
	return lo, hi
}

// sorInterior clamps a band to the rows a sweep updates.
func sorInterior(lo, hi int) (int, int) { return max(lo, 1), min(hi, sorRows-1) }

func (s *sorLoad) prepare(b *bed) error {
	err := b.each(func(c *core.Cluster) (err error) {
		s.grid, err = c.AllocPage(sorRows * sorCols * 8)
		return err
	})
	if err != nil {
		return err
	}
	return b.run(func(n *core.Node) error {
		lo, hi := sorBand(n.N(), n.ID())
		for r := lo; r < hi; r++ {
			for c := 0; c < sorCols; c++ {
				if v := sorInitial(r, c); v != 0 {
					if err := n.WriteFloat64(s.cell(r, c), v); err != nil {
						return err
					}
				}
			}
		}
		return n.Barrier(0)
	})
}

// sweep updates the cells of one colour in node n's band.
func (s *sorLoad) sweep(n *core.Node, phase int) error {
	lo, hi := sorInterior(sorBand(n.N(), n.ID()))
	for r := lo; r < hi; r++ {
		for c := 1 + (r+phase)%2; c < sorCols-1; c += 2 {
			up, err := n.ReadFloat64(s.cell(r-1, c))
			if err != nil {
				return err
			}
			down, err := n.ReadFloat64(s.cell(r+1, c))
			if err != nil {
				return err
			}
			left, err := n.ReadFloat64(s.cell(r, c-1))
			if err != nil {
				return err
			}
			right, err := n.ReadFloat64(s.cell(r, c+1))
			if err != nil {
				return err
			}
			if err := n.WriteFloat64(s.cell(r, c), 0.25*(up+down+left+right)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *sorLoad) warm(b *bed) error {
	first := s.done
	s.done += s.warmOps
	return b.run(func(n *core.Node) error {
		for p := first; p < first+s.warmOps; p++ {
			if err := s.sweep(n, p%2); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *sorLoad) measure(b *bed, d time.Duration, traced bool) (*window, error) {
	nodes := len(b.nodes)
	w := &window{ends: make([][]int64, nodes)}
	if traced {
		w.mids = make([][]int64, nodes)
	}
	for i := range w.ends {
		w.ends[i] = touched(s.samples)
		if traced {
			w.mids[i] = touched(s.samples)
		}
	}
	// Node 0 decides which half-sweep is the last and publishes its
	// index before arriving at that half-sweep's barrier; the others
	// read it after the barrier, so every node stops at the same one.
	var last atomic.Int64
	last.Store(math.MaxInt64)
	first := s.done
	t0 := time.Now()
	err := b.run(func(n *core.Node) error {
		id := n.ID()
		for i := 0; i < s.samples; i++ {
			if err := s.sweep(n, (first+i)%2); err != nil {
				return err
			}
			now := time.Since(t0)
			if traced {
				w.mids[id][i] = int64(now)
			}
			if id == 0 && (now >= d || i == s.samples-1) {
				last.Store(int64(i))
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
			w.ends[id][i] = int64(time.Since(t0))
			if int64(i) >= last.Load() {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := int(last.Load()) + 1
	for i := range w.ends {
		w.ends[i] = w.ends[i][:n]
		if traced {
			w.mids[i] = w.mids[i][:n]
		}
	}
	s.done += n
	w.ops = n * nodes
	// Five shared accesses per updated cell; the bands are equal.
	lo, hi := sorInterior(sorBand(nodes, 0))
	w.accessesPerOp = 5 * (hi - lo) * (sorCols - 2) / 2
	return w, nil
}

// check compares every cell with a sequential relaxation of the same
// number of half-sweeps computed in plain local memory.
func (s *sorLoad) check(b *bed) error {
	g := make([]float64, sorRows*sorCols)
	for r := 0; r < sorRows; r++ {
		for c := 0; c < sorCols; c++ {
			g[r*sorCols+c] = sorInitial(r, c)
		}
	}
	for p := 0; p < s.done; p++ {
		for r := 1; r < sorRows-1; r++ {
			for c := 1 + (r+p)%2; c < sorCols-1; c += 2 {
				g[r*sorCols+c] = 0.25 * (g[(r-1)*sorCols+c] + g[(r+1)*sorCols+c] + g[r*sorCols+c-1] + g[r*sorCols+c+1])
			}
		}
	}
	n0 := b.nodes[0]
	for r := 0; r < sorRows; r++ {
		for c := 0; c < sorCols; c++ {
			got, err := n0.ReadFloat64(s.cell(r, c))
			if err != nil {
				return err
			}
			if want := g[r*sorCols+c]; math.Abs(got-want) > 1e-12 {
				return fmt.Errorf("sor: cell (%d,%d) = %v after %d half-sweeps, want %v", r, c, got, s.done, want)
			}
		}
	}
	return nil
}

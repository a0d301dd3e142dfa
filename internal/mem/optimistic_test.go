package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// genPage is a page image holding generation g in every word.
func genPage(size int, g uint64) []byte {
	b := make([]byte, size)
	for off := 0; off < size; off += 8 {
		binary.LittleEndian.PutUint64(b[off:], g)
	}
	return b
}

// TestOptimisticReadIsLinearizable races lock-free readers against a
// writer that cycles a page through every bracketed mutation: an
// Install of poison while Invalid, an Install of generation g
// read-only, a WriteFrom of g+1 over every word, an applied diff
// carrying g+2, and a protection change. At every instant the readable
// page holds one generation, and generations only grow, so a reader
// that loads word i and then word j must never accept poison, nor a
// generation at j older than the one it saw at i. A mutation whose
// version bracket is missing lets a reader see it half done.
func TestOptimisticReadIsLinearizable(t *testing.T) {
	const size, cycles, readers = 256, 1500, 2
	const poison = 0xdeaddeaddeaddead
	tbl, _ := NewTable(size, size)
	p := tbl.Page(0)
	poisoned := genPage(size, poison)

	var stop atomic.Bool
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := int64(0)
			for !stop.Load() {
				i, j := rng.Intn(size/8), rng.Intn(size/8)
				a, okA := p.LoadUint64(8 * i)
				b, okB := p.LoadUint64(8 * j)
				if okA && a == poison || okB && b == poison {
					t.Errorf("accepted poison: word %d ok=%v %#x, word %d ok=%v %#x", i, okA, a, j, okB, b)
					return
				}
				if okA && okB && b < a {
					t.Errorf("generation went backwards: word %d read %d, then word %d read %d", i, a, j, b)
					return
				}
				if okA {
					n++
				}
			}
			accepted.Add(n)
		}(int64(r))
	}

	for c := uint64(0); c < cycles && !t.Failed(); c++ {
		g := 3*c + 1
		p.Lock()
		p.Install(poisoned, Invalid)
		p.Install(genPage(size, g), ReadOnly)
		p.WriteFrom(genPage(size, g+1), 0)
		if err := p.ApplyDiffLocked(CreateDiff(genPage(size, g+1), genPage(size, g+2)), false); err != nil {
			t.Error(err)
		}
		p.SetProt(ReadWrite)
		if !bytes.Equal(p.Snapshot(), genPage(size, g+2)) {
			t.Errorf("cycle %d: page does not hold generation %d", c, g+2)
		}
		p.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if !t.Failed() && accepted.Load() == 0 {
		t.Fatal("no optimistic read was ever accepted: the test exercised nothing")
	}
}

// TestLoadUint64Bails: the lock-free read refuses an Invalid page and a
// page inside a version bracket, reads a never-written page as 0
// without allocating its frame, and otherwise reads the stored word.
func TestLoadUint64Bails(t *testing.T) {
	tbl, _ := NewTable(128, 64)
	p := tbl.Page(1)
	if _, ok := p.LoadUint64(8); ok {
		t.Fatal("read of an Invalid page accepted")
	}
	p.Lock()
	p.SetProt(ReadOnly)
	p.Unlock()
	if v, ok := p.LoadUint64(8); !ok || v != 0 || p.data() != nil {
		t.Fatalf("never-written page: %d, %v, frame allocated %v", v, ok, p.data() != nil)
	}
	p.Lock()
	p.PutUint64(8, 0x0102030405060708)
	p.begin()
	if _, ok := p.LoadUint64(8); ok {
		t.Error("read inside a version bracket accepted")
	}
	p.SetProt(p.Prot())
	p.Unlock()
	if v, ok := p.LoadUint64(8); !ok || v != 0x0102030405060708 {
		t.Fatalf("LoadUint64 = %#x, %v", v, ok)
	}
}

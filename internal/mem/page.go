// Package mem implements the software MMU of the DSM system: a paged
// local memory with per-page protection bits, ownership metadata,
// copysets, and the twin/diff machinery used by multiple-writer
// protocols. Hardware DSM systems drive these structures from SIGSEGV
// handlers; Go's runtime owns SIGSEGV, so accesses are checked in
// software by the node runtime, which produces the identical
// fault-driven protocol event stream (see DESIGN.md, Substitutions).
//
// Written list. A page goes on its Table's written list when its dirty
// flag goes false -> true (MakeTwin, WriteFrom, PutUint64,
// SetDirty(true), all under the page lock), so an engine closing an
// interval visits Table.TakeWritten() instead of every page. The
// invariant: with no take in flight, every page with Dirty() &&
// HasTwin() is listed, once. A take delists the pages it returns, and
// its caller refreshes or drops the twin of each dirty twinned one. A
// page returned dirty without a twin stays dirty and unlisted, which
// is why MakeTwin lists unconditionally. Engines that never take (sc,
// classic, ec) never clear a dirty flag: each page is listed at most
// once.
//
// Frame stores are word-atomic: a frame is a []uint64, a change a
// reader could see in more than one word is bracketed by the page's
// version word, and a protection change moves it, so LoadUint64 reads
// an aligned word with no lock (a seqlock read; DESIGN.md §4.1).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Prot is a page protection level, mirroring the hardware page-table
// states a page-based DSM sets via mprotect.
type Prot uint8

const (
	// Invalid: any access faults.
	Invalid Prot = iota
	// ReadOnly: reads succeed, writes fault.
	ReadOnly
	// ReadWrite: all accesses succeed.
	ReadWrite
)

// String returns the conventional protocol-state name.
func (p Prot) String() string {
	switch p {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// PageID identifies a page within the shared address space.
type PageID = int32

// Page is one node's view of a shared page plus the protocol metadata
// engines keep for it. All fields except the latch internals are
// manipulated by protocol engines while holding Lock (LoadUint64 reads
// state and frame without it).
type Page struct {
	mu   sync.Mutex
	cond *sync.Cond

	id  PageID
	tbl *Table // page size, and the written list

	state atomic.Uint64          // the version word: see changing
	frame atomic.Pointer[uint64] // word 0 of the frame; nil reads all-zero

	twin   []byte // snapshot for diffing; nil when no twin
	dirty  bool   // written since last twin/flush
	listed bool   // on tbl's written list; guarded by tbl.wmu, not mu
	busy   bool   // a fault transaction is in progress on this node

	// Owner is the owner or probable owner of the page, depending on
	// the engine's locator; -1 means unknown.
	Owner int32
	// Copyset tracks which nodes hold copies. Meaningful at the
	// manager or owner, depending on the engine.
	Copyset Bitset
	// Seq is engine-defined scratch (e.g. a version or flush count).
	Seq uint64
}

func (p *Page) init(t *Table, id PageID) {
	p.tbl = t
	p.id = id
	p.cond = sync.NewCond(&p.mu)
	p.Owner = -1
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Size returns the page size in bytes.
func (p *Page) Size() int { return p.tbl.pageSize }

// Lock acquires the page's mutex.
func (p *Page) Lock() { p.mu.Lock() }

// Unlock releases the page's mutex.
func (p *Page) Unlock() { p.mu.Unlock() }

// The version word: bit 0 (changing) is set while a change a lock-free
// reader could observe is under way, bits 1-2 hold the Prot, the bits
// above count finished changes. Only the Lock holder writes it.
const changing, protShift, verShift = 1, 1, 3

// Prot returns the current protection. Caller must hold Lock.
func (p *Page) Prot() Prot { return Prot(p.state.Load() >> protShift & 3) }

// SetProt updates the protection, with a new version that also ends any
// bracket begin opened. Caller must hold Lock.
func (p *Page) SetProt(prot Prot) {
	p.state.Store((p.state.Load()>>verShift+1)<<verShift | uint64(prot&3)<<protShift)
}

// begin opens a version bracket: until SetProt, LoadUint64 fails.
func (p *Page) begin() { p.state.Store(p.state.Load() | changing) }

// Dirty reports whether the page was written since the last twin
// snapshot or flush. Caller must hold Lock.
func (p *Page) Dirty() bool { return p.dirty }

// SetDirty marks or clears the dirty flag. Caller must hold Lock.
func (p *Page) SetDirty(d bool) {
	if d {
		p.markDirty()
	} else {
		p.dirty = false
	}
}

// markDirty is how every store sets the dirty flag: a clean page goes
// on the written list. Caller must hold Lock.
func (p *Page) markDirty() {
	if !p.dirty {
		p.wrote()
	}
}

// wrote sets the dirty flag and lists the page unless it already is.
// Out of line so markDirty stays one inlined branch on the hit path.
func (p *Page) wrote() {
	p.dirty = true
	t := p.tbl
	t.wmu.Lock()
	if !p.listed {
		p.listed = true
		t.written = append(t.written, p.id)
	}
	t.wmu.Unlock()
}

// words returns the frame, allocating it zeroed (as the nil one reads,
// so with no bracket) on first use. Caller must hold Lock.
func (p *Page) words() []uint64 {
	w := p.frame.Load()
	if w == nil {
		w = &make([]uint64, p.Size()/8)[0]
		p.frame.Store(w)
	}
	return unsafe.Slice(w, p.Size()/8)
}

// data is the frame's byte view for reads under Lock, nil if unwritten.
func (p *Page) data() []byte {
	w := p.frame.Load()
	if w == nil {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(w)), p.Size())
}

// store writes b at off and sets prot inside one version bracket.
func (p *Page) store(off int, b []byte, prot Prot) {
	w := p.words()
	p.begin()
	put(w, off, b)
	p.SetProt(prot)
}

// put stores b into frame w at off, one atomic store per word, merging
// a word b covers in part with its current bytes.
func put(w []uint64, off int, b []byte) {
	for len(b) > 0 {
		i, lo := off>>3, off&7
		if lo == 0 && len(b) >= 8 {
			atomic.StoreUint64(&w[i], binary.NativeEndian.Uint64(b))
			off, b = off+8, b[8:]
			continue
		}
		var x [8]byte
		binary.NativeEndian.PutUint64(x[:], w[i])
		n := copy(x[lo:], b)
		atomic.StoreUint64(&w[i], binary.NativeEndian.Uint64(x[:]))
		off, b = off+n, b[n:]
	}
}

// le converts between a frame word and the little-endian value its
// bytes hold (a byte swap only on a big-endian host).
func le(w uint64) uint64 {
	if bigEndian {
		w = bits.ReverseBytes64(w)
	}
	return w
}

var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// Snapshot returns a copy of the page contents (zeros if untouched).
// Caller must hold Lock.
func (p *Page) Snapshot() []byte {
	out := make([]byte, p.Size())
	copy(out, p.data()) // copy from nil copies nothing: stays zero
	return out
}

// Install replaces the page contents and protection, e.g. when a
// grant carrying page data arrives. A nil data keeps the current
// frame. Caller must hold Lock.
func (p *Page) Install(data []byte, prot Prot) {
	if data == nil {
		p.SetProt(prot)
	} else if len(data) != p.Size() {
		panic(fmt.Sprintf("mem: Install page %d: payload %d bytes, page size %d", p.id, len(data), p.Size()))
	} else {
		p.store(0, data, prot)
	}
}

// MakeTwin snapshots the current contents as the diff base and marks
// the page dirty. It is a no-op if a twin already exists. Returns
// true if a new twin was created. Caller must hold Lock.
func (p *Page) MakeTwin() bool {
	if p.twin != nil {
		p.markDirty()
		return false
	}
	p.twin = p.Snapshot()
	p.wrote() // not markDirty: a take may have delisted the page while dirty
	return true
}

// HasTwin reports whether a twin snapshot exists. Caller must hold Lock.
func (p *Page) HasTwin() bool { return p.twin != nil }

// DiffAgainstTwin encodes the changes since MakeTwin. It does not
// drop the twin. Caller must hold Lock.
func (p *Page) DiffAgainstTwin() []byte {
	if p.twin == nil {
		panic(fmt.Sprintf("mem: DiffAgainstTwin page %d: no twin", p.id))
	}
	p.words() // a never-written page diffs as zeros
	return CreateDiff(p.twin, p.data())
}

// UnflushedDiff encodes the stores made since the twin was taken: what
// an interval close must record and an invalidation must not lose. ok
// is false for a page that is clean or has no twin. Caller must hold
// Lock.
func (p *Page) UnflushedDiff() (diff []byte, ok bool) {
	if !p.dirty || p.twin == nil {
		return nil, false
	}
	return p.DiffAgainstTwin(), true
}

// DropTwin discards the twin and clears the dirty flag.
// Caller must hold Lock.
func (p *Page) DropTwin() {
	p.twin = nil
	p.dirty = false
}

// RefreshTwin re-snapshots the current contents as the new diff base
// without clearing ReadWrite protection, used at interval boundaries
// when a page stays writable. An existing twin is overwritten in
// place: hold no Twin() across it. Caller must hold Lock.
func (p *Page) RefreshTwin() {
	if p.twin == nil {
		p.twin = p.Snapshot()
	} else {
		clear(p.twin[copy(p.twin, p.data()):]) // a nil frame is all zeros
	}
	p.dirty = false
}

// ApplyDiffLocked patches the page (and, if requested, the twin, so a
// pending local diff will not re-send remotely applied runs) with an
// encoded diff. Caller must hold Lock.
func (p *Page) ApplyDiffLocked(diff []byte, alsoTwin bool) error {
	w := p.words()
	p.begin()
	err := walkRuns(diff, p.Size(), func(off int, run []byte) { put(w, off, run) })
	p.SetProt(p.Prot())
	if err != nil {
		return fmt.Errorf("page %d: %w", p.id, err)
	}
	if alsoTwin && p.twin != nil {
		if err := ApplyDiff(p.twin, diff); err != nil {
			return fmt.Errorf("page %d twin: %w", p.id, err)
		}
	}
	return nil
}

// The fault latch serializes fault transactions on this node for
// this page: local accesses that need a fault wait for an in-progress
// fault to finish rather than issuing a duplicate network
// transaction. Remote requests (invalidations) only need the page
// mutex and are never blocked by the latch, which is essential for
// deadlock freedom.

// LatchBusy reports whether a fault transaction is in progress.
// Caller must hold Lock.
func (p *Page) LatchBusy() bool { return p.busy }

// LatchAcquire marks a fault transaction in progress. Caller must
// hold Lock and have checked LatchBusy is false.
func (p *Page) LatchAcquire() {
	if p.busy {
		panic(fmt.Sprintf("mem: LatchAcquire page %d: already busy", p.id))
	}
	p.busy = true
}

// LatchWait blocks until the in-progress fault completes. Caller
// must hold Lock; the lock is released while waiting and re-held on
// return, so callers must re-check protection afterwards.
func (p *Page) LatchWait() { p.cond.Wait() }

// LatchRelease ends the fault transaction and wakes waiters.
// Caller must hold Lock.
func (p *Page) LatchRelease() {
	if !p.busy {
		panic(fmt.Sprintf("mem: LatchRelease page %d: no fault in progress", p.id))
	}
	p.busy = false
	p.cond.Broadcast()
}

// ReadInto copies page bytes [off, off+len(buf)) into buf.
// Caller must hold Lock and have checked protection.
func (p *Page) ReadInto(buf []byte, off int) {
	d := p.data()
	if d == nil {
		clear(buf)
		return
	}
	copy(buf, d[off:off+len(buf)])
}

// WriteFrom copies buf into page bytes [off, off+len(buf)).
// Caller must hold Lock and have checked protection.
func (p *Page) WriteFrom(buf []byte, off int) {
	p.store(off, buf, p.Prot())
	p.markDirty()
}

// LoadUint64 loads the little-endian word at an aligned off in the page
// without the lock, as a seqlock read: ok is false, and the caller must
// lock, if the page is not readable or its version moved. An accepted
// value is what a locked read returned at some instant between the two
// version loads. A never-written page reads 0.
func (p *Page) LoadUint64(off int) (v uint64, ok bool) {
	s := p.state.Load()
	if s&changing != 0 || Prot(s>>protShift&3) < ReadOnly {
		return 0, false
	}
	if w := p.frame.Load(); w != nil {
		v = le(atomic.LoadUint64((*uint64)(unsafe.Add(unsafe.Pointer(w), off))))
	}
	return v, p.state.Load() == s
}

// PutUint64 stores the 8-byte little-endian word v at off and marks the
// page dirty. Aligned, it is one atomic store, which LoadUint64 sees
// whole, so it needs no bracket; unaligned, two word merges inside one.
// Caller must hold Lock and have checked protection.
func (p *Page) PutUint64(off int, v uint64) {
	if off&7 == 0 {
		atomic.StoreUint64(&p.words()[off>>3], le(v))
	} else {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		p.store(off, b[:], p.Prot())
	}
	p.markDirty()
}

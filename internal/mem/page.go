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
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
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
// manipulated by protocol engines while holding Lock.
type Page struct {
	mu   sync.Mutex
	cond *sync.Cond

	id  PageID
	tbl *Table // page size, and the written list

	prot   Prot
	data   []byte // lazily allocated; nil means all-zero
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

// Prot returns the current protection. Caller must hold Lock.
func (p *Page) Prot() Prot { return p.prot }

// SetProt updates the protection. Caller must hold Lock.
func (p *Page) SetProt(prot Prot) { p.prot = prot }

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

// Data returns the page frame, allocating a zeroed frame on first
// use. Caller must hold Lock.
func (p *Page) Data() []byte {
	if p.data == nil {
		p.data = make([]byte, p.Size())
	}
	return p.data
}

// Snapshot returns a copy of the page contents (zeros if untouched).
// Caller must hold Lock.
func (p *Page) Snapshot() []byte {
	out := make([]byte, p.Size())
	copy(out, p.data) // copy from nil copies nothing: stays zero
	return out
}

// Install replaces the page contents and protection, e.g. when a
// grant carrying page data arrives. A nil data keeps the current
// frame. Caller must hold Lock.
func (p *Page) Install(data []byte, prot Prot) {
	if data != nil {
		if len(data) != p.Size() {
			panic(fmt.Sprintf("mem: Install page %d: payload %d bytes, page size %d", p.id, len(data), p.Size()))
		}
		copy(p.Data(), data)
	}
	p.prot = prot
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
	return CreateDiff(p.twin, p.Data())
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
		clear(p.twin[copy(p.twin, p.data):]) // a nil frame is all zeros
	}
	p.dirty = false
}

// ApplyDiffLocked patches the page (and, if requested, the twin, so a
// pending local diff will not re-send remotely applied runs) with an
// encoded diff. Caller must hold Lock.
func (p *Page) ApplyDiffLocked(diff []byte, alsoTwin bool) error {
	if err := ApplyDiff(p.Data(), diff); err != nil {
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
	if p.data == nil {
		clear(buf)
		return
	}
	copy(buf, p.data[off:off+len(buf)])
}

// WriteFrom copies buf into page bytes [off, off+len(buf)).
// Caller must hold Lock and have checked protection.
func (p *Page) WriteFrom(buf []byte, off int) {
	copy(p.Data()[off:off+len(buf)], buf)
	p.markDirty()
}

// Uint64 loads the 8-byte little-endian word at off: ReadInto for one
// word with no buffer in between, as PutUint64 is WriteFrom. A
// never-written page reads 0 without allocating its frame. Caller
// must hold Lock and have checked protection.
func (p *Page) Uint64(off int) uint64 {
	if p.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p.data[off:])
}

// PutUint64 stores the 8-byte word v at off and marks the page dirty.
func (p *Page) PutUint64(off int, v uint64) {
	binary.LittleEndian.PutUint64(p.Data()[off:], v)
	p.markDirty()
}

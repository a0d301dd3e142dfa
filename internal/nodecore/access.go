package nodecore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// ReadAt copies len(buf) bytes of shared memory starting at addr into
// buf, faulting pages in as needed. It is the software equivalent of
// a load instruction sequence on hardware DSM.
func (r *Runtime) ReadAt(addr int64, buf []byte) error {
	r.st.Reads.Add(1)
	return r.access(addr, buf, false)
}

// WriteAt copies buf into shared memory starting at addr, faulting
// pages to writable state as needed.
func (r *Runtime) WriteAt(addr int64, buf []byte) error {
	r.st.Writes.Add(1)
	return r.access(addr, buf, true)
}

// access is the general path: it walks [addr, addr+len(buf)) one page
// at a time. An engine that handles the access remotely leaves only
// the collector to see the pages.
func (r *Runtime) access(addr int64, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	r.tbl.CheckRange(addr, len(buf))
	handled, derr := false, error(nil)
	if r.direct != nil {
		if write {
			handled, derr = r.direct.DirectWrite(addr, buf)
		} else {
			handled, derr = r.direct.DirectRead(addr, buf)
		}
		if handled && r.collector == nil {
			return derr
		}
	}
	for pos := 0; pos < len(buf); {
		page, off := r.tbl.PageOf(addr + int64(pos))
		n := min(len(buf)-pos, r.tbl.PageSize()-off)
		if r.collector != nil {
			r.collector.Observe(int(r.id), page, write)
		}
		if !handled {
			if err := r.chunk(page, off, buf[pos:pos+n], write); err != nil {
				return err
			}
		}
		pos += n
	}
	return derr
}

// chunk moves b to or from one page at off.
func (r *Runtime) chunk(page mem.PageID, off int, b []byte, write bool) error {
	p := r.tbl.Page(page)
	p.Lock()
	defer p.Unlock()
	if err := r.ensure(p, write); err != nil {
		return err
	}
	typ := trace.EvRead
	if write {
		typ = trace.EvWrite
		p.WriteFrom(b, off)
	} else {
		p.ReadInto(b, off)
	}
	if r.atrace != nil {
		// Still under the page lock, so the hash is of the bytes this
		// access actually moved and the emission is ordered with any
		// concurrent local access to the same page.
		r.atrace.Emit(typ, -1, trace.HashBytes(b), page, -1, trace.AccessArg(off, len(b)), 0)
	}
	return nil
}

// ensure makes p readable, or writable, by running the engine's fault
// handler under the page's fault latch. The caller holds p's lock,
// which is dropped around the handler.
func (r *Runtime) ensure(p *mem.Page, write bool) error {
	want, kind, faults := mem.ReadOnly, "read", &r.st.ReadFaults
	if write {
		want, kind, faults = mem.ReadWrite, "write", &r.st.WriteFaults
	}
	for p.Prot() < want {
		if p.LatchBusy() {
			p.LatchWait()
			continue
		}
		p.LatchAcquire()
		p.Unlock()
		faults.Add(1)
		err := r.servedFault(p.ID(), write)
		p.Lock()
		p.LatchRelease()
		if err != nil {
			return fmt.Errorf("node %d: %s fault page %d: %w", r.id, kind, p.ID(), err)
		}
	}
	return nil
}

// servedFault runs the engine's fault handler for page, timing it into
// the fault-service histogram and the trace ring when observability is
// on. With both off (the default) it is a single branch around the
// engine call.
func (r *Runtime) servedFault(page mem.PageID, write bool) error {
	if r.st.Lat == nil && r.tracer == nil {
		if write {
			return r.engine.WriteFault(page)
		}
		return r.engine.ReadFault(page)
	}
	var rw uint64
	if write {
		rw = 1
	}
	r.tracer.Emit(trace.EvFaultBegin, -1, 0, page, -1, rw, 0)
	start := time.Now()
	var err error
	if write {
		err = r.engine.WriteFault(page)
	} else {
		err = r.engine.ReadFault(page)
	}
	d := time.Since(start)
	if r.st.Lat != nil {
		r.st.Lat.Fault.Observe(d.Nanoseconds())
	}
	r.tracer.Emit(trace.EvFaultEnd, -1, 0, page, -1, rw, d)
	return err
}

// Typed accessors. Values are stored little-endian. An aligned value
// never spans pages because page sizes are powers of two >= 8.

// ReadUint64 loads the 8-byte value at addr. An aligned word on a
// readable page is a local hit read without the page lock
// (mem.Page.LoadUint64); anything else, and a hit whose page was
// changing, takes the general path. So does every access while hooked:
// it is the only place the hooks are tested.
func (r *Runtime) ReadUint64(addr int64) (uint64, error) {
	if p, off, ok := r.tbl.Within(addr, 8); ok && !r.hooked && off&7 == 0 {
		if v, ok := p.LoadUint64(off); ok {
			r.st.Reads.Add(1)
			return v, nil
		}
	}
	var b [8]byte
	if err := r.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 stores an 8-byte value at addr. A word inside one
// writable page is a local hit, stored under the page lock: the store
// must exclude an invalidation's snapshot, and it sets the dirty flag.
func (r *Runtime) WriteUint64(addr int64, v uint64) error {
	if p, off, ok := r.tbl.Within(addr, 8); ok && !r.hooked {
		p.Lock()
		if p.Prot() == mem.ReadWrite {
			p.PutUint64(off, v)
			p.Unlock()
			r.st.Writes.Add(1)
			return nil
		}
		p.Unlock()
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.WriteAt(addr, b[:])
}

// ReadInt64 loads a signed 8-byte value.
func (r *Runtime) ReadInt64(addr int64) (int64, error) {
	v, err := r.ReadUint64(addr)
	return int64(v), err
}

// WriteInt64 stores a signed 8-byte value.
func (r *Runtime) WriteInt64(addr int64, v int64) error {
	return r.WriteUint64(addr, uint64(v))
}

// ReadFloat64 loads an 8-byte IEEE-754 value.
func (r *Runtime) ReadFloat64(addr int64) (float64, error) {
	v, err := r.ReadUint64(addr)
	return math.Float64frombits(v), err
}

// WriteFloat64 stores an 8-byte IEEE-754 value.
func (r *Runtime) WriteFloat64(addr int64, v float64) error {
	return r.WriteUint64(addr, math.Float64bits(v))
}

// TxLocks serializes page transactions at the node that manages or
// owns each page. It is distinct from the page mutex (which protects
// contents and is never held across the network) — a transaction
// lock IS held across nested RPCs, which is safe because transaction
// locks are only taken by the single serializer of each page.
type TxLocks struct {
	mu []sync.Mutex
}

// NewTxLocks sizes the lock table for the page count.
func NewTxLocks(pages int) *TxLocks {
	return &TxLocks{mu: make([]sync.Mutex, pages)}
}

// Lock acquires the transaction lock for a page.
func (t *TxLocks) Lock(p mem.PageID) { t.mu[p].Lock() }

// Unlock releases the transaction lock for a page.
func (t *TxLocks) Unlock(p mem.PageID) { t.mu[p].Unlock() }

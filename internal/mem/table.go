package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Table is one node's page table for the shared address space:
// HeapBytes of address space split into fixed-size pages.
type Table struct {
	pageSize int
	shift    uint // log2(pageSize)
	heap     int64
	pages    []Page

	// The written list (see the package comment). wmu is a leaf lock,
	// taken with a page lock held and never the other way round.
	wmu     sync.Mutex
	written []PageID
}

// NewTable builds a page table for a heap of heapBytes bytes with the
// given page size (a power of two, at least one 8-byte word). heapBytes
// is rounded up to a whole number of pages.
func NewTable(heapBytes int64, pageSize int) (*Table, error) {
	if pageSize < 8 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("mem: page size %d is not a power of two >= 8", pageSize)
	}
	if heapBytes <= 0 {
		return nil, fmt.Errorf("mem: heap size %d must be positive", heapBytes)
	}
	n := int((heapBytes + int64(pageSize) - 1) / int64(pageSize))
	t := &Table{
		pageSize: pageSize,
		shift:    uint(bits.TrailingZeros(uint(pageSize))),
		heap:     int64(n) * int64(pageSize),
		pages:    make([]Page, n),
	}
	for i := range t.pages {
		t.pages[i].init(t, PageID(i))
	}
	return t, nil
}

// PageSize returns the page size in bytes.
func (t *Table) PageSize() int { return t.pageSize }

// HeapBytes returns the total (page-rounded) heap size.
func (t *Table) HeapBytes() int64 { return t.heap }

// NumPages returns the number of pages.
func (t *Table) NumPages() int { return len(t.pages) }

// Page returns the page with the given id.
func (t *Table) Page(id PageID) *Page {
	if id < 0 || int(id) >= len(t.pages) {
		panic(fmt.Sprintf("mem: page %d out of range [0,%d)", id, len(t.pages)))
	}
	return &t.pages[id]
}

// EachLocked calls fn on every page in id order with the page's lock
// held: how an engine's Init sets the initial page states.
func (t *Table) EachLocked(fn func(p *Page)) {
	for i := range t.pages {
		p := &t.pages[i]
		p.Lock()
		fn(p)
		p.Unlock()
	}
}

// TakeWritten returns the pages that went clean -> dirty since the last
// take and empties the list. The result is ascending, so an interval's
// page order does not depend on the order of the writes. Each returned
// page that is still Dirty() && HasTwin() must have its twin refreshed
// or dropped by the caller, or it stays dirty and unlisted.
func (t *Table) TakeWritten() []PageID {
	t.wmu.Lock()
	ids := t.written
	t.written = nil
	for _, id := range ids {
		t.pages[id].listed = false
	}
	t.wmu.Unlock()
	slices.Sort(ids)
	return ids
}

// PageOf returns the page id and intra-page offset for an address.
func (t *Table) PageOf(addr int64) (PageID, int) {
	if addr < 0 || addr >= t.heap {
		panic(fmt.Sprintf("mem: address %#x outside heap [0,%#x)", addr, t.heap))
	}
	return PageID(addr >> t.shift), int(addr) & (t.pageSize - 1)
}

// Within returns the page holding [addr, addr+n) and addr's offset in
// it; ok is false if the range leaves the heap or crosses a page
// boundary. It is the whole address check of a local word access.
func (t *Table) Within(addr int64, n int) (p *Page, off int, ok bool) {
	off = int(addr) & (t.pageSize - 1)
	if addr < 0 || addr > t.heap-int64(n) || off+n > t.pageSize {
		return nil, 0, false
	}
	return &t.pages[addr>>t.shift], off, true
}

// CheckRange panics unless [addr, addr+n) lies inside the heap.
func (t *Table) CheckRange(addr int64, n int) {
	if addr < 0 || addr+int64(n) > t.heap {
		panic(fmt.Sprintf("mem: range [%#x,%#x) outside heap [0,%#x)", addr, addr+int64(n), t.heap))
	}
}

// Chunk describes the intersection of an address range with one page.
type Chunk struct {
	Page PageID
	Off  int // offset within the page
	Pos  int // offset within the caller's buffer
	Len  int
}

// Split decomposes the range [addr, addr+n) into per-page chunks.
func (t *Table) Split(addr int64, n int) []Chunk {
	if n < 0 {
		panic(fmt.Sprintf("mem: Split: negative length %d", n))
	}
	t.CheckRange(addr, n)
	var chunks []Chunk
	pos := 0
	for n > 0 {
		page, off := t.PageOf(addr)
		l := t.pageSize - off
		if l > n {
			l = n
		}
		chunks = append(chunks, Chunk{Page: page, Off: off, Pos: pos, Len: l})
		addr += int64(l)
		pos += l
		n -= l
	}
	return chunks
}

package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendBytes appends b to buf behind its uvarint length: the form
// Dec.Bytes reads.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// Dec is a decode cursor over an untrusted payload — the engines'
// varint-packed lists that ride in Msg.Data. It is a plain value; the
// first malformed field sets a sticky error, after which every read
// yields zero, so a decoder checks once, with Done.
type Dec struct {
	buf []byte
	err error
}

// NewDec starts a cursor at the front of buf.
func NewDec(buf []byte) Dec { return Dec{buf: buf} }

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Resume(nil, fmt.Errorf("wire: truncated or overlong varint with %d bytes left", len(d.buf)))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Count reads an element count. Every element takes at least one byte,
// so a count beyond the bytes remaining is malformed: a hostile count
// can make no decoder allocate or loop past the size of its input.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Resume(nil, fmt.Errorf("wire: count or length %d exceeds the %d bytes left", n, len(d.buf)))
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint length and that many bytes, aliasing the input.
func (d *Dec) Bytes() []byte {
	n := d.Count()
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Rest returns the unread bytes, for a field with a decoder of its own;
// Resume continues after it, at rest, or fails the cursor with its err.
func (d *Dec) Rest() []byte { return d.buf }

// Resume: see Rest. An error leaves nothing to read; the first sticks.
func (d *Dec) Resume(rest []byte, err error) {
	if err != nil {
		rest = nil
		if d.err == nil {
			d.err = err
		}
	}
	d.buf = rest
}

// Ok reports whether every read so far succeeded; element loops test it.
func (d *Dec) Ok() bool { return d.err == nil }

// Done ends the decode: the first error, or an error if bytes remain.
func (d *Dec) Done() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return d.err
}

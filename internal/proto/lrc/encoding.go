package lrc

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The payload formats below are lists of uvarints and length-prefixed
// byte strings. They arrive from other processes, so every decoder
// reads through a wire.Dec: malformed input is an error, never a panic,
// and no count is trusted beyond the bytes that came with it. An empty
// payload is an empty list.

// Interval set encoding:
//
//	uvarint count
//	count × { uvarint node, uvarint seq, vclock, uvarint npages,
//	          npages × uvarint page }
func encodeIntervals(ivs []*interval) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ivs)))
	for _, iv := range ivs {
		buf = binary.AppendUvarint(buf, uint64(iv.node))
		buf = binary.AppendUvarint(buf, uint64(iv.seq))
		buf = iv.vc.Encode(buf)
		buf = binary.AppendUvarint(buf, uint64(len(iv.pages)))
		for _, pg := range iv.pages {
			buf = binary.AppendUvarint(buf, uint64(pg))
		}
	}
	return buf
}

var noIntervals = encodeIntervals(nil) // shared: readers never modify it

func decodeIntervals(buf []byte) ([]*interval, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	d := wire.NewDec(buf)
	out := readIntervals(&d)
	return out, d.Done()
}

func readIntervals(d *wire.Dec) []*interval {
	n := d.Count()
	out := make([]*interval, 0, n)
	for ; n > 0 && d.Ok(); n-- {
		iv := &interval{node: int32(d.Uvarint()), seq: uint32(d.Uvarint())}
		vc, rest, err := vclock.Decode(d.Rest())
		d.Resume(rest, err)
		iv.vc = vc
		iv.pages = make([]mem.PageID, d.Count())
		for i := range iv.pages {
			iv.pages[i] = mem.PageID(d.Uvarint())
		}
		out = append(out, iv)
	}
	return out
}

// Grant payload: an interval set, then, only when the granter carries
// some of its own diffs, a push section (see appendPushes). A grant
// that carries none is the bare interval set.
func encodeGrant(ivs []*interval, pushes []pushEntry) []byte {
	buf := encodeIntervals(ivs)
	if len(pushes) > 0 {
		buf = appendPushes(buf, pushes)
	}
	return buf
}

func decodeGrant(buf []byte) (ivs []*interval, pushes []pushEntry, err error) {
	if len(buf) == 0 {
		return nil, nil, nil
	}
	d := wire.NewDec(buf)
	ivs = readIntervals(&d)
	if len(d.Rest()) > 0 {
		pushes = readPushes(&d)
	}
	return ivs, pushes, d.Done()
}

// seqDiff pairs an interval seq with a page diff.
type seqDiff struct {
	seq  uint32
	diff []byte
}

// Diff list encoding: uvarint count, count × { uvarint seq,
// uvarint len, len bytes }.
func encodeDiffList(ds []seqDiff) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ds)))
	for _, d := range ds {
		buf = wire.AppendBytes(binary.AppendUvarint(buf, uint64(d.seq)), d.diff)
	}
	return buf
}

func decodeDiffList(buf []byte) (map[uint32][]byte, error) {
	out := make(map[uint32][]byte)
	if len(buf) == 0 {
		return out, nil
	}
	d := wire.NewDec(buf)
	for n := d.Count(); n > 0 && d.Ok(); n-- {
		seq := uint32(d.Uvarint())
		out[seq] = d.Bytes()
	}
	return out, d.Done()
}

// pushEntry is one diff addressed to one reader, carried by a lock
// grant or piggybacked on barrier traffic: writer's interval (writer,
// seq) touched page pg, and reader has previously fetched that page's
// diffs from the writer.
type pushEntry struct {
	reader int32
	writer int32
	seq    uint32
	pg     mem.PageID
	diff   []byte
}

// Push section, shared by grants and barrier payloads:
//
//	uvarint count || count × { uvarint reader, uvarint writer,
//	                           uvarint seq, uvarint page,
//	                           uvarint len, len bytes }
func appendPushes(buf []byte, pushes []pushEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pushes)))
	for _, pe := range pushes {
		buf = binary.AppendUvarint(buf, uint64(pe.reader))
		buf = binary.AppendUvarint(buf, uint64(pe.writer))
		buf = binary.AppendUvarint(buf, uint64(pe.seq))
		buf = binary.AppendUvarint(buf, uint64(pe.pg))
		buf = wire.AppendBytes(buf, pe.diff)
	}
	return buf
}

func readPushes(d *wire.Dec) (pushes []pushEntry) {
	for n := d.Count(); n > 0 && d.Ok(); n-- {
		pushes = append(pushes, pushEntry{
			reader: int32(d.Uvarint()),
			writer: int32(d.Uvarint()),
			seq:    uint32(d.Uvarint()),
			pg:     mem.PageID(d.Uvarint()),
			diff:   d.Bytes(),
		})
	}
	return pushes
}

// Barrier payload envelope: uvarint len(interval section) || interval
// section || push section. Length-prefixing the interval set lets the
// push section follow without decodeIntervals seeing trailing bytes.
func encodeBarrierPayload(ivsRaw []byte, pushes []pushEntry) []byte {
	return appendPushes(wire.AppendBytes(nil, ivsRaw), pushes)
}

func decodeBarrierPayload(buf []byte) (ivsRaw []byte, pushes []pushEntry, err error) {
	if len(buf) == 0 {
		return nil, nil, nil
	}
	d := wire.NewDec(buf)
	ivsRaw = d.Bytes()
	pushes = readPushes(&d)
	return ivsRaw, pushes, d.Done()
}

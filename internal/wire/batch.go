package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch frames. A KBatch message carries several complete encoded
// messages in its Data payload so that one transport send (one frame,
// one syscall on TCP) delivers them all. Members keep their own From,
// To, Req, and Attempt fields: the receiving runtime unpacks
// the frame and routes every member exactly as if it had arrived on
// its own, so reply matching and duplicate suppression operate per
// member, never per batch. The batch frame itself has Req == 0 and is
// therefore invisible to the dedup table.
//
// Layout of Data: repeated { uvarint length, length bytes of one
// encoded message }. The member count is implicit.

// PackBatch appends the length-prefixed encoding of each message to
// buf and returns the extended slice.
func PackBatch(buf []byte, msgs []*Msg) []byte {
	for _, m := range msgs {
		buf = binary.AppendUvarint(buf, uint64(m.EncodedSize()))
		buf = m.Encode(buf)
	}
	return buf
}

// UnpackBatch decodes every member of a batch payload, reading them
// through Dec: like Decode it treats its input as untrusted, and no
// member, an empty member, one running past the payload or one of kind
// KBatch (batches do not nest) is an error, never a panic. Members own
// their payloads (Decode copies), so data may be pooled afterwards.
func UnpackBatch(data []byte) ([]*Msg, error) {
	var out []*Msg
	d := NewDec(data)
	for len(d.Rest()) > 0 {
		raw := d.Bytes()
		if !d.Ok() {
			break
		}
		m, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: batch member %d: %w", len(out), err)
		}
		if m.Kind == KBatch {
			return nil, fmt.Errorf("wire: nested batch")
		}
		out = append(out, m)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wire: batch member %d: %w", len(out), err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("wire: empty batch")
	}
	return out, nil
}

// Package wire defines the DSM system's message vocabulary and its
// binary wire encoding. Every message is encoded to bytes and decoded
// on receipt — on the simulated network so that message and byte
// counts are faithful, and on the TCP transport because the bytes
// really do cross sockets. Decode therefore treats its input as
// untrusted: every length field is bounds-checked and malformed
// input yields an error, never a panic (FuzzDecode enforces this).
// The payloads engines pack into Msg.Data are decoded under the same
// contract through Dec (FuzzDec).
package wire

import (
	"encoding/binary"
	"fmt"
)

// Version identifies the frame encoding. Transports exchange it
// during connection setup so that mismatched builds fail fast with a
// clear error instead of desynchronizing mid-stream; bump it on any
// incompatible change to Encode/Decode or the Kind vocabulary.
//
// v2: added KBatch (multi-message frames) and KDiffPush (one-way
// interest-based diff distribution) to the vocabulary.
// v3: dropped the never-written second payload and its length
// field, so the header is 45 bytes, and the never-sent lock-forward
// kind (every later kind's number moved down by one).
// v4: locks are cached tokens. The release kind's slot carries the
// owner's invalidation of a read copy (KLockInval), a lock request
// may be relayed along the owners' succession (B counts its hops),
// and no release message exists.
// v5: no retransmission metadata. The kind byte's high bit no longer
// flags an attempt byte, and the confirmation kind's number is
// reserved: both are unknown kinds.
// v6: an lrc lock grant may carry the granter's diffs after its write
// notices, and the one-way diff push kind's number is reserved.
const Version byte = 6

// MaxEncodedSize caps one encoded message (64 MiB). Real-socket
// transports reject longer frames before allocating, so a corrupt or
// hostile length prefix cannot force an arbitrary allocation.
const MaxEncodedSize = 64 << 20

// Kind identifies a protocol message type.
type Kind uint8

// Message kinds. Requests and their replies are paired; IsReply
// reports which side a kind is on, which the node runtime uses to
// route replies to waiting callers.
const (
	KInvalid Kind = iota

	// Generic.
	KAck // generic reply

	// Distributed lock service (dsync).
	KLockReq   // acquire request: Lock, Arg=mode, B=hops past the manager, Data=acquirer payload
	KLockGrant // reply to acquirer: Data=grant payload
	KLockInval // token owner -> reader: drop the read copy; answered by KAck

	// Barrier service (dsync).
	KBarArrive  // node -> barrier manager/parent: Lock=barrier id, Data=payload
	KBarRelease // manager/parent -> nodes: Data=merged payload

	// Event service (dsync): set-once flags with blocking waiters.
	KEvtWait  // wait request: Lock=event id, Data=acquire payload
	KEvtSet   // setter -> manager: Lock=event id
	KEvtFired // reply to waiter: Data=grant payload

	// Sequentially consistent write-invalidate (proto/sc).
	KReadReq    // read fault: Page
	KReadGrant  // reply: Data=page bytes unless Arg&FlagNoData
	KWriteReq   // write fault: Page
	KWriteGrant // reply: Data=page bytes unless Arg&FlagNoData
	KInval      // invalidate: Page
	KInvalAck   // reply to KInval; Data optionally carries a diff (ERC)
	kReserved   // was KConfirm (v4 and earlier); never sent, rejected by DecodeInto
	KNotOwner   // reply in broadcast mode: receiver does not own Page

	// Classic algorithm classes (proto/classic).
	KDirRead      // central server read: Arg=addr, B=len
	KDirReadReply // reply: Data=bytes
	KDirWrite     // central server write: Arg=addr, Data=bytes
	KDirWriteAck  // reply
	KSeqWrite     // full replication: write to sequencer; Arg=addr, Data=bytes
	KSeqWriteAck  // reply to writer
	KUpdate       // sequencer -> copyset: Arg=addr, Data=bytes
	KUpdateAck    // reply to sequencer
	KPageReq      // fetch a page copy: Page
	KPageReply    // reply: Data=page bytes

	// Eager release consistency (proto/erc).
	KErcFetch    // fetch page from home: Page
	KErcPage     // reply: Data=page bytes
	KErcFlush    // flush diff to home: Page, Data=diff
	KErcFlushAck // reply after home has propagated
	KErcInval    // home -> sharer: Page (invalidate flavor)
	KErcInvalAck // reply; Data optionally carries the sharer's own pending diff
	KErcUpdate   // home -> sharer: Page, Data=diff (update flavor)
	KErcUpdAck   // reply

	// Lazy release consistency (proto/lrc).
	KDiffReq      // Page, Arg=first interval seq, B=last interval seq (at writer From->To)
	KDiffReply    // reply: Data=concatenated length-prefixed diffs
	kReservedPush // was KDiffPush (v5 and earlier); never sent, rejected by DecodeInto

	// Batching (nodecore). A batch frame carries several complete
	// encoded messages in Data (see PackBatch); the receiving runtime
	// unpacks it and routes each member as if it had arrived alone.
	KBatch

	kindCount
)

// KLockRel is KLockInval's former name: a lock release sends no
// message since v4, and the slot went to the invalidation.
const KLockRel = KLockInval

var kindNames = [...]string{
	KInvalid:      "invalid",
	KAck:          "ack",
	KLockReq:      "lock-req",
	KLockGrant:    "lock-grant",
	KLockInval:    "lock-inval",
	KBarArrive:    "bar-arrive",
	KBarRelease:   "bar-release",
	KEvtWait:      "evt-wait",
	KEvtSet:       "evt-set",
	KEvtFired:     "evt-fired",
	KReadReq:      "read-req",
	KReadGrant:    "read-grant",
	KWriteReq:     "write-req",
	KWriteGrant:   "write-grant",
	KInval:        "inval",
	KInvalAck:     "inval-ack",
	kReserved:     "reserved",
	KNotOwner:     "not-owner",
	KDirRead:      "dir-read",
	KDirReadReply: "dir-read-reply",
	KDirWrite:     "dir-write",
	KDirWriteAck:  "dir-write-ack",
	KSeqWrite:     "seq-write",
	KSeqWriteAck:  "seq-write-ack",
	KUpdate:       "update",
	KUpdateAck:    "update-ack",
	KPageReq:      "page-req",
	KPageReply:    "page-reply",
	KErcFetch:     "erc-fetch",
	KErcPage:      "erc-page",
	KErcFlush:     "erc-flush",
	KErcFlushAck:  "erc-flush-ack",
	KErcInval:     "erc-inval",
	KErcInvalAck:  "erc-inval-ack",
	KErcUpdate:    "erc-update",
	KErcUpdAck:    "erc-upd-ack",
	KDiffReq:      "diff-req",
	KDiffReply:    "diff-reply",
	kReservedPush: "reserved",
	KBatch:        "batch",
}

// String returns the kind's protocol name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

var replyKind = map[Kind]bool{
	KAck:          true,
	KLockGrant:    true,
	KBarRelease:   true,
	KEvtFired:     true,
	KReadGrant:    true,
	KWriteGrant:   true,
	KInvalAck:     true,
	KNotOwner:     true,
	KDirReadReply: true,
	KDirWriteAck:  true,
	KSeqWriteAck:  true,
	KUpdateAck:    true,
	KPageReply:    true,
	KErcPage:      true,
	KErcFlushAck:  true,
	KErcInvalAck:  true,
	KErcUpdAck:    true,
	KDiffReply:    true,
}

// reserved reports a kind number that is no longer sent.
func (k Kind) reserved() bool { return k == kReserved || k == kReservedPush }

// IsReply reports whether k is a reply kind, routed to a waiting
// caller by request id rather than to a handler.
func (k Kind) IsReply() bool { return replyKind[k] }

// Flags carried in Msg.Arg by grant messages.
const (
	// FlagNoData marks a grant whose page payload was elided because
	// the requester already holds a valid copy.
	FlagNoData uint64 = 1 << 0
)

// Msg is a protocol message. The scalar fields are a small fixed
// vocabulary shared by all protocols (interpreted per Kind); Data
// carries the variable payload (page contents, diffs, piggybacked
// consistency information).
type Msg struct {
	Kind Kind
	From int32 // logical originator (preserved across forwarding)
	To   int32
	Req  uint64 // request id, echoed by replies; globally unique per request
	Page int32
	Lock int32
	Arg  uint64
	B    uint64
	Data []byte
}

const headerSize = 1 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 4 // fields + payload length

// EncodedSize returns the number of bytes Encode will produce.
func (m *Msg) EncodedSize() int { return headerSize + len(m.Data) }

// Encode appends the wire form of m to buf and returns the extended
// slice.
func (m *Msg) Encode(buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.To))
	buf = binary.LittleEndian.AppendUint64(buf, m.Req)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Page))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Lock))
	buf = binary.LittleEndian.AppendUint64(buf, m.Arg)
	buf = binary.LittleEndian.AppendUint64(buf, m.B)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Data)))
	return append(buf, m.Data...)
}

// Decode parses one message from buf, which must contain exactly one
// encoded message. buf is untrusted (TCP transports feed it bytes
// straight off a socket): the payload length is checked against the
// bytes present, and any inconsistency returns an error. Decode never
// panics. The returned message owns its payload (it is copied out of
// buf), so buf may be reused or pooled immediately.
func Decode(buf []byte) (*Msg, error) {
	m := &Msg{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	if len(m.Data) > 0 {
		m.Data = append([]byte(nil), m.Data...)
	}
	return m, nil
}

// DecodeInto parses one message from buf into m, with the same
// validation contract as Decode but without allocating: m.Data is a
// sub-slice of buf. The caller owns the aliasing — m is
// valid only as long as buf is neither reused nor returned to a pool.
// Previous contents of m are overwritten entirely.
func DecodeInto(m *Msg, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("wire: short message: %d bytes, need at least %d", len(buf), headerSize)
	}
	if len(buf) > MaxEncodedSize {
		return fmt.Errorf("wire: oversized message: %d bytes exceeds cap %d", len(buf), MaxEncodedSize)
	}
	*m = Msg{}
	m.Kind = Kind(buf[0])
	if m.Kind == KInvalid || m.Kind.reserved() || m.Kind >= kindCount {
		return fmt.Errorf("wire: unknown kind %d", buf[0])
	}
	m.From = int32(binary.LittleEndian.Uint32(buf[1:]))
	m.To = int32(binary.LittleEndian.Uint32(buf[5:]))
	m.Req = binary.LittleEndian.Uint64(buf[9:])
	m.Page = int32(binary.LittleEndian.Uint32(buf[17:]))
	m.Lock = int32(binary.LittleEndian.Uint32(buf[21:]))
	m.Arg = binary.LittleEndian.Uint64(buf[25:])
	m.B = binary.LittleEndian.Uint64(buf[33:])
	nd := binary.LittleEndian.Uint32(buf[41:])
	rest := buf[45:]
	if uint64(nd) != uint64(len(rest)) {
		return fmt.Errorf("wire: payload length mismatch: header says %d, have %d", nd, len(rest))
	}
	if nd > 0 {
		m.Data = rest[:nd:nd]
	}
	return nil
}

// String renders a compact human-readable form for traces.
func (m *Msg) String() string {
	s := fmt.Sprintf("%s %d->%d", m.Kind, m.From, m.To)
	if m.Req != 0 {
		s += fmt.Sprintf(" req=%x", m.Req)
	}
	if m.Page != 0 || m.Kind == KReadReq || m.Kind == KWriteReq {
		s += fmt.Sprintf(" page=%d", m.Page)
	}
	if m.Lock != 0 {
		s += fmt.Sprintf(" lock=%d", m.Lock)
	}
	if m.Arg != 0 {
		s += fmt.Sprintf(" arg=%#x", m.Arg)
	}
	if m.B != 0 {
		s += fmt.Sprintf(" b=%#x", m.B)
	}
	if len(m.Data) > 0 {
		s += fmt.Sprintf(" data=%dB", len(m.Data))
	}
	return s
}

// NumKinds returns the number of defined kinds (for handler tables).
func NumKinds() int { return int(kindCount) }

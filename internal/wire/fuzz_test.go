package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzSeeds returns a nontrivial corpus: well-formed encodings of
// every kind and payload shape, plus systematically corrupted
// variants (truncations, flipped length fields, bad kinds: the high
// bit on the kind byte, which flagged an attempt byte before v5, and
// the reserved kind number).
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	msgs := []*Msg{
		{Kind: KAck, From: 0, To: 1},
		{Kind: KLockReq, From: 2, To: 0, Req: 0x1234, Lock: 7, Arg: 1},
		{Kind: KReadGrant, From: 1, To: 3, Req: 1 << 41, Page: 12, Data: bytes.Repeat([]byte{0xAB}, 1024)},
		{Kind: KDiffReply, From: 3, To: 0, Req: 99, Data: []byte{1, 2, 3, 4, 5}},
		{Kind: KBarArrive, From: 5, To: 2, Lock: -1, B: ^uint64(0)},
		{Kind: KEvtSet, From: 1, To: 1, Lock: 3, Arg: 0xdeadbeef},
		{Kind: KErcFlush, From: 0, To: 7, Page: 1 << 20, Data: make([]byte, 4096)},
		{Kind: KBatch, From: 1, To: 2, Data: PackBatch(nil, []*Msg{{Kind: KLockInval, To: 2, Lock: 4}, {Kind: KAck, To: 2, Req: 7}})},
	}
	for _, m := range msgs {
		enc := m.Encode(nil)
		seeds = append(seeds, enc)
		// Truncations at interesting boundaries.
		for _, cut := range []int{0, 1, headerSize - 1, headerSize, len(enc) - 1} {
			if cut >= 0 && cut < len(enc) {
				seeds = append(seeds, enc[:cut])
			}
		}
		// Flip each byte of the header (kind, ids, lengths).
		for i := 0; i < headerSize && i < len(enc); i++ {
			cp := append([]byte(nil), enc...)
			cp[i] ^= 0xFF
			seeds = append(seeds, cp)
		}
		// The kind byte's high bit, and the reserved kind.
		cp := append([]byte(nil), enc...)
		cp[0] |= 0x80
		seeds = append(seeds, cp)
		cp = append([]byte(nil), enc...)
		cp[0] = byte(kReserved)
		seeds = append(seeds, cp)
	}
	seeds = append(seeds,
		nil,
		bytes.Repeat([]byte{0xFF}, headerSize),
		bytes.Repeat([]byte{0x00}, headerSize+16),
	)
	return seeds
}

// FuzzDecode asserts Decode never panics on arbitrary input, and that
// accepted messages survive an encode/decode round trip unchanged —
// mandatory properties now that frames arrive from real sockets.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b) // must not panic, whatever b holds
		if err != nil {
			return
		}
		if m.Kind == KInvalid || m.Kind >= Kind(kindCount) {
			t.Fatalf("Decode accepted invalid kind %d", m.Kind)
		}
		re := m.Encode(nil)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v (original %d bytes)", err, len(b))
		}
		if m.Kind != m2.Kind || m.From != m2.From || m.To != m2.To || m.Req != m2.Req ||
			m.Page != m2.Page || m.Lock != m2.Lock || m.Arg != m2.Arg || m.B != m2.B ||
			!bytes.Equal(m.Data, m2.Data) {
			t.Fatalf("round trip mismatch:\n  first  %+v\n  second %+v", m, m2)
		}
	})
}

// TestDecodeRejectsCorruptFrames spot-checks the error paths the
// fuzz corpus exercises, so failures are readable without the fuzzer.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good := (&Msg{Kind: KReadGrant, From: 1, To: 2, Req: 5, Data: []byte{1, 2, 3}}).Encode(nil)
	cases := map[string][]byte{
		"empty":          {},
		"one byte":       {byte(KAck)},
		"short header":   good[:headerSize-1],
		"truncated data": good[:len(good)-1],
		"trailing junk":  append(append([]byte(nil), good...), 0xEE),
		"zero kind":      append([]byte{0}, good[1:]...),
		"huge kind":      append([]byte{0x7F}, good[1:]...),
	}
	// Claimed payload length far beyond the buffer.
	hugeLen := append([]byte(nil), good...)
	hugeLen[headerSize-4] = 0xFF
	hugeLen[headerSize-3] = 0xFF
	hugeLen[headerSize-2] = 0xFF
	hugeLen[headerSize-1] = 0xFF
	cases["huge data length"] = hugeLen
	// The high bit flagged an attempt byte before v5; the reserved
	// kind was the confirmation. Both are unknown kinds now.
	cases["high-bit kind"] = append([]byte{byte(KReadGrant) | 0x80}, good[1:]...)
	cases["reserved kind"] = append([]byte{byte(kReserved)}, good[1:]...)
	for _, name := range []string{"high-bit kind", "reserved kind"} {
		if _, err := Decode(cases[name]); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("%s: err = %v, want an unknown kind", name, err)
		}
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// decList reads the shape every engine payload has — a counted list of
// { uvarint, length-prefixed bytes } — and re-encodes what it read.
func decList(data []byte) ([]byte, error) {
	d := NewDec(data)
	n := d.Count()
	out := binary.AppendUvarint(nil, uint64(n))
	for ; n > 0 && d.Ok(); n-- {
		out = AppendBytes(binary.AppendUvarint(out, d.Uvarint()), d.Bytes())
	}
	return out, d.Done()
}

// FuzzDec holds the cursor to its contract on arbitrary bytes: no
// panic, reads stay inside the input, and whatever decodes without
// error re-encodes to the bytes it was decoded from (minimal varints
// aside, hence the length comparison).
func FuzzDec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 5, 3, 4, 5, 6, 0x81, 0x01, 0})
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Add(binary.AppendUvarint(nil, 1<<30))
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decList(data)
		if err == nil && len(out) > len(data) {
			t.Fatalf("%x decoded to more than it holds: %x", data, out)
		}
	})
}

// TestDecRejects pins the cursor's refusals one by one.
func TestDecRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"count beyond the bytes left", []byte{3, 1, 0}},
		{"count 2^62", binary.AppendUvarint(nil, 1<<62)},
		{"truncated varint", []byte{1, 0x80}},
		{"length beyond the bytes left", []byte{1, 7, 2, 9}},
		{"trailing byte", []byte{1, 7, 1, 9, 0}},
	} {
		if _, err := decList(tc.data); err == nil {
			t.Errorf("%s: %x decoded", tc.name, tc.data)
		}
	}
	if out, err := decList([]byte{2, 5, 3, 4, 5, 6, 0x81, 0x01, 0}); err != nil || !bytes.Equal(out, []byte{2, 5, 3, 4, 5, 6, 0x81, 0x01, 0}) {
		t.Errorf("valid list: %x, %v", out, err)
	}
}

package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// TestGoldenFrame pins the v5 frame byte for byte: a 45-byte header of
// kind, From, To, Req, Page, Lock, Arg, B and the payload length, all
// little-endian, then the payload. Any change here is a wire format
// change and needs a Version bump.
func TestGoldenFrame(t *testing.T) {
	m := &Msg{Kind: KWriteGrant, From: 3, To: 7, Req: 0x0102030405060708, Page: 42, Lock: -1,
		Arg: FlagNoData, B: 999, Data: []byte{0xaa, 0xbb, 0xcc}}
	const want = "0d" + "03000000" + "07000000" + "0807060504030201" + "2a000000" + "ffffffff" +
		"0100000000000000" + "e703000000000000" + "03000000" + "aabbcc"
	got := m.Encode(nil)
	if w, _ := hex.DecodeString(want); !bytes.Equal(got, w) {
		t.Errorf("encodes to\n%x\nwant\n%s", got, want)
	}
	if hdr := len(got) - len(m.Data); hdr != 45 || hdr != m.EncodedSize()-len(m.Data) {
		t.Errorf("header is %d bytes", hdr)
	}
	if Version != 5 {
		t.Errorf("Version = %d: the frame above is v5", Version)
	}
}

// TestUnpackBatchRejects pins the batch decoder's refusals and one
// accepted frame.
func TestUnpackBatchRejects(t *testing.T) {
	a, b := &Msg{Kind: KLockInval, To: 1, Lock: 2}, &Msg{Kind: KAck, To: 1, Req: 9, Data: []byte{1}}
	good := PackBatch(nil, []*Msg{a, b})
	nested := PackBatch(nil, []*Msg{{Kind: KBatch, To: 1, Data: PackBatch(nil, []*Msg{a})}})
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty batch", "empty batch", nil},
		{"nested batch", "nested batch", nested},
		{"zero-length member", "short message", append(append([]byte(nil), good...), 0)},
		{"member longer than the bytes left", "exceeds", good[:len(good)-1]},
		{"truncated length", "varint", append(append([]byte(nil), good...), 0x80)},
	} {
		if _, err := UnpackBatch(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	got, err := UnpackBatch(good)
	if err != nil || len(got) != 2 || got[0].Lock != 2 || got[1].Req != 9 || !bytes.Equal(got[1].Data, []byte{1}) {
		t.Fatalf("UnpackBatch(good) = %+v, %v", got, err)
	}
}

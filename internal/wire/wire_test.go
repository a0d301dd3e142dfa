package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Msg{
		Kind: KWriteGrant,
		From: 3,
		To:   7,
		Req:  0xDEADBEEF,
		Page: 42,
		Lock: -1,
		Arg:  FlagNoData,
		B:    999,
		Data: []byte{1, 2, 3},
	}
	buf := m.Encode(nil)
	if len(buf) != m.EncodedSize() {
		t.Fatalf("len = %d, want %d", len(buf), m.EncodedSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("decode = %+v, want %+v", got, m)
	}
}

func TestDecodeEmptyPayloads(t *testing.T) {
	m := &Msg{Kind: KAck, From: 0, To: 1}
	got, err := Decode(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != nil {
		t.Fatalf("empty payload decoded as %v", got.Data)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := Decode(make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	// Unknown kind.
	m := &Msg{Kind: KAck}
	buf := m.Encode(nil)
	buf[0] = 250
	if _, err := Decode(buf); err == nil {
		t.Error("unknown kind accepted")
	}
	buf[0] = 0
	if _, err := Decode(buf); err == nil {
		t.Error("kind 0 accepted")
	}
	// Payload length mismatch.
	buf = (&Msg{Kind: KAck, Data: []byte{1, 2}}).Encode(nil)
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestEveryKindHasNameAndParity(t *testing.T) {
	reqReply := map[Kind]Kind{
		KLockReq:   KLockGrant,
		KBarArrive: KBarRelease,
		KReadReq:   KReadGrant,
		KWriteReq:  KWriteGrant,
		KInval:     KInvalAck,
		KDirRead:   KDirReadReply,
		KDirWrite:  KDirWriteAck,
		KSeqWrite:  KSeqWriteAck,
		KUpdate:    KUpdateAck,
		KPageReq:   KPageReply,
		KErcFetch:  KErcPage,
		KErcFlush:  KErcFlushAck,
		KErcInval:  KErcInvalAck,
		KErcUpdate: KErcUpdAck,
		KDiffReq:   KDiffReply,
	}
	for k := Kind(1); int(k) < NumKinds(); k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Errorf("kind %d has no name", k)
		}
	}
	for req, rep := range reqReply {
		if req.IsReply() {
			t.Errorf("%v misclassified as reply", req)
		}
		if !rep.IsReply() {
			t.Errorf("%v not classified as reply", rep)
		}
	}
	if !KAck.IsReply() {
		t.Error("KAck must be a reply")
	}
}

func TestStringContainsEssentials(t *testing.T) {
	m := &Msg{Kind: KReadReq, From: 1, To: 2, Page: 5, Data: []byte{1}}
	s := m.String()
	for _, want := range []string{"read-req", "1->2", "page=5", "data=1B"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAttemptEncoding: v5 carries no retransmission metadata. No
// message encodes with the kind byte's high bit, which flagged an
// attempt byte until v4, and a v4 retransmission — high bit set, the
// attempt byte after the kind — is refused as an unknown kind.
func TestAttemptEncoding(t *testing.T) {
	for k := Kind(1); int(k) < NumKinds(); k++ {
		if b := (&Msg{Kind: k}).Encode(nil); b[0]&0x80 != 0 {
			t.Fatalf("%v encodes with the high bit set", k)
		}
	}
	base := (&Msg{Kind: KReadReq, From: 1, To: 2, Req: 7, Page: 3, Data: []byte{9}}).Encode(nil)
	v4 := append([]byte{base[0] | 0x80, 3}, base[1:]...)
	if _, err := Decode(v4); err == nil || !contains(err.Error(), "unknown kind") {
		t.Fatalf("v4 retransmission frame: err = %v, want an unknown kind", err)
	}
}

// TestRoundTripQuick fuzzes the codec.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, nd uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Msg{
			Kind: Kind(1 + r.Intn(NumKinds()-1)),
			From: int32(r.Int31()),
			To:   int32(r.Int31()),
			Req:  r.Uint64(),
			Page: int32(r.Int31()),
			Lock: int32(r.Int31()),
			Arg:  r.Uint64(),
			B:    r.Uint64(),
		}
		if m.Kind == kReserved {
			m.Kind = KAck
		}
		if nd > 0 {
			m.Data = make([]byte, nd)
			r.Read(m.Data)
		}
		got, err := Decode(m.Encode(nil))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

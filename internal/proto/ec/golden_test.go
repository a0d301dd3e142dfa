package ec_test

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/dsync"
	"repro/internal/proto/ec"
)

// TestGrantPayloadGoldenBytes pins the three grant formats (plain
// ranges; diff mode's log suffix and its full copy with the travelling
// log attached) as node 0 builds them after three exclusive releases.
// The strings were captured before the codec moved onto wire.Dec.
func TestGrantPayloadGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		proto  core.Protocol
		acqVer uint64
		want   string
	}{
		{"ranges", core.EC, 0, "0300000000000000020010020000000000000003000000000000008a02080303030303030303"},
		{"current", core.EC, 3, "0300000000000000"},
		{"diff log", core.ECDiff, 2, "03000000000000000202020d0001020f080202020202020202030d08010307080303030303030303"},
		{"full copy with log", core.ECDiff, 0, "0300000000000000011802000000000000000300000000000000030303030303030302020d0001020f080202020202020202030d08010307080303030303030303"},
	} {
		c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: tc.proto, PageSize: 256, HeapBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		a, b := c.MustAlloc(16), c.MustAlloc(300)
		c.Bind(1, a, 16)
		c.Bind(1, b+250, 8) // straddles a page boundary
		n0 := c.Node(0)
		for v := uint64(1); v <= 3; v++ {
			if err := n0.Acquire(1); err != nil {
				t.Fatal(err)
			}
			if err := n0.WriteUint64(a+8*(int64(v)%2), v); err != nil {
				t.Fatal(err)
			}
			if err := n0.WriteUint64(b+250, 0x0101010101010101*v); err != nil {
				t.Fatal(err)
			}
			if err := n0.Release(1); err != nil {
				t.Fatal(err)
			}
		}
		req := binary.LittleEndian.AppendUint64(nil, tc.acqVer)
		got := n0.Runtime().Engine().(*ec.Engine).GrantPayload(1, 1, dsync.Exclusive, req)
		if got := hex.EncodeToString(got); got != tc.want {
			t.Errorf("%s grant encodes as %q, want %q", tc.name, got, tc.want)
		}
		c.Close()
	}
}

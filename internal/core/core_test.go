package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestConfigValidation(t *testing.T) {
	cases := []core.Config{
		{Nodes: 0},
		{Nodes: 2, PageSize: 100},               // not a power of two
		{Nodes: 2, PageSize: 4},                 // too small
		{Nodes: 2, Protocol: core.Protocol(99)}, // unknown protocol
		{Nodes: 2, Protocol: core.Protocol(-1)}, // negative protocol
	}
	for i, cfg := range cases {
		if _, err := core.NewCluster(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	if cfg.PageSize != 1024 || cfg.HeapBytes != 1<<20 || cfg.Protocol != core.SCCentral {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestAlloc(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 1, PageSize: 256, HeapBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Alloc(10, 0)
	if err != nil || a != 0 {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, err := c.Alloc(8, 0)
	if err != nil || b != 16 { // 10 rounded up to 8-alignment
		t.Fatalf("second alloc = %d, %v", b, err)
	}
	p, err := c.AllocPage(8)
	if err != nil || p != 256 {
		t.Fatalf("page alloc = %d, %v", p, err)
	}
	if _, err := c.Alloc(10000, 0); err == nil {
		t.Fatal("overcommit accepted")
	}
	if _, err := c.Alloc(-1, 0); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := c.Alloc(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
}

func TestProtocolStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range core.Protocols() {
		s := p.String()
		if s == "" || strings.HasPrefix(s, "Protocol(") {
			t.Errorf("protocol %d has no name", int(p))
		}
		if seen[s] {
			t.Errorf("duplicate protocol name %q", s)
		}
		seen[s] = true
	}
	if len(seen) != 13 {
		t.Fatalf("expected 13 protocols, found %d", len(seen))
	}
}

func TestReleaseConsistentClassification(t *testing.T) {
	rc := map[core.Protocol]bool{
		core.ERCInvalidate: true, core.ERCUpdate: true, core.LRC: true, core.HLRC: true, core.EC: true, core.ECDiff: true,
	}
	for _, p := range core.Protocols() {
		if p.ReleaseConsistent() != rc[p] {
			t.Errorf("%v.ReleaseConsistent() = %v", p, p.ReleaseConsistent())
		}
	}
}

func TestRunReportsFirstError(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 3, PageSize: 256, HeapBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *core.Node) error {
		if n.ID() == 1 {
			return errSentinel
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "sentinel") {
		t.Fatalf("err = %v", err)
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "sentinel failure" }

var errSentinel = sentinelError{}

func TestTypedAccessors(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2, PageSize: 256, HeapBytes: 1 << 16, Protocol: core.SCFixed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.MustAlloc(32)
	n := c.Node(0)
	if err := n.WriteFloat64(addr, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteInt64(addr+8, -42); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteUint64(addr+16, 1<<60); err != nil {
		t.Fatal(err)
	}
	// Read back from the other node (through the protocol).
	m := c.Node(1)
	if v, err := m.ReadFloat64(addr); err != nil || v != 3.5 {
		t.Fatalf("float = %v, %v", v, err)
	}
	if v, err := m.ReadInt64(addr + 8); err != nil || v != -42 {
		t.Fatalf("int = %v, %v", v, err)
	}
	if v, err := m.ReadUint64(addr + 16); err != nil || v != 1<<60 {
		t.Fatalf("uint = %v, %v", v, err)
	}
}

// TestReadHitSeesInvalidation: node 1 spins on a word, mostly on the
// lock-free read hit, while node 0 writes 1…N to it under sc-fixed.
// Node 0 writes the next value only once node 1 has seen the last, so
// every write invalidates the copy node 1 is spinning on. Node 1 must
// see the values in order — never one older than a value it has
// already read — and end at N; a hit that missed an invalidation would
// spin on a stale value until node 0 gives up.
func TestReadHitSeesInvalidation(t *testing.T) {
	const n = 300
	c, err := core.NewCluster(core.Config{Nodes: 2, PageSize: 256, HeapBytes: 1 << 12, Protocol: core.SCFixed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.MustAlloc(8)
	var seen atomic.Uint64 // the last value node 1 read
	var gaveUp atomic.Bool
	err = c.Run(func(nd *core.Node) error {
		if nd.ID() == 0 {
			for v := uint64(1); v <= n; v++ {
				if err := nd.WriteUint64(addr, v); err != nil {
					return err
				}
				for deadline := time.Now().Add(5 * time.Second); seen.Load() < v; runtime.Gosched() {
					if time.Now().After(deadline) {
						gaveUp.Store(true)
						return fmt.Errorf("node 1 never read %d (last read %d)", v, seen.Load())
					}
				}
			}
			return nil
		}
		for last := uint64(0); last != n && !gaveUp.Load(); {
			v, err := nd.ReadUint64(addr)
			if err != nil {
				return err
			}
			if v < last {
				return fmt.Errorf("read %d after %d", v, last)
			}
			last = v
			seen.Store(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats()[1]; s.ReadFaults < n {
		t.Errorf("node 1 took %d read faults for %d values", s.ReadFaults, n)
	}
}

func TestCrossPageAccess(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2, PageSize: 256, HeapBytes: 1 << 16, Protocol: core.SCDynamic})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A write spanning three pages, read back from the other node.
	addr := int64(200)
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Node(0).WriteAt(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 600)
	if err := c.Node(1).ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestBindAccumulates(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Bind(5, 0, 16)
	c.Bind(5, 64, 8)
	rs := c.BindingsOf(5)
	if len(rs) != 2 || rs[0].Addr != 0 || rs[1].Len != 8 {
		t.Fatalf("bindings = %+v", rs)
	}
	if len(c.BindingsOf(6)) != 0 {
		t.Fatal("unbound lock has ranges")
	}
}

func TestCloseIdempotent(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // must not panic
}

// TestDigestIgnoresNodeLocalFields: the observers change what a node
// records, never what it sends, so processes may differ in them. The
// pinned digests are the ones Advise=false configs have always had —
// the TCP handshake compares them across builds of one version.
func TestDigestIgnoresNodeLocalFields(t *testing.T) {
	local := map[string]func(*core.Config){
		"Advise":        func(c *core.Config) { c.Advise = true },
		"EventTrace":    func(c *core.Config) { c.EventTrace = true },
		"AccessTrace":   func(c *core.Config) { c.AccessTrace = true },
		"TraceCapacity": func(c *core.Config) { c.TraceCapacity = 1 << 10 },
		"OnStall":       func(c *core.Config) { c.OnStall = func(string) {} },
	}
	for _, tc := range []struct {
		cfg  core.Config
		want uint64
	}{
		{core.Config{Nodes: 3, Protocol: core.LRC}, 0xaa62a81f24c4abd3},
		{core.Config{Nodes: 4, Protocol: core.SCFixed, Batch: true, TreeBarrier: true, TreeFanout: 3, LRCBarrierGC: true}, 0x7be4263ce5493011},
		{core.Config{Nodes: 2}, 0x5fe0039c6f84b4eb},
	} {
		if got := tc.cfg.Digest(); got != tc.want {
			t.Errorf("%+v: Digest = %#x, want %#x", tc.cfg, got, tc.want)
		}
		for name, set := range local {
			cfg := tc.cfg
			set(&cfg)
			if got := cfg.Digest(); got != tc.want {
				t.Errorf("%+v with %s set: Digest = %#x, want %#x", tc.cfg, name, got, tc.want)
			}
		}
	}
	if a, b := (core.Config{Nodes: 2}).Digest(), (core.Config{Nodes: 2, Batch: true}).Digest(); a == b {
		t.Error("Batch, which changes the traffic, does not change the digest")
	}
}

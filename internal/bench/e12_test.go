package bench

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

// runSOR executes one SOR run and returns (transport messages sent,
// result checksum).
func runSOR(t *testing.T, cfg core.Config, app apps.App) (int64, uint64) {
	t.Helper()
	res, err := sim(cfg, app)
	if err != nil {
		t.Fatalf("batch=%v: %v", cfg.Batch, err)
	}
	return res.Total().MsgsSent, res.Checksum
}

// TestBatchingReducesMessages pins the E12 acceptance bar: SOR over
// homeless LRC with batching on must send at least 30% fewer
// transport messages (diff pushes and barrier-piggybacked diffs
// replace fetch round trips) and still produce the bit-identical
// result.
func TestBatchingReducesMessages(t *testing.T) {
	msgs := make(map[bool]int64)
	sums := make(map[bool]uint64)
	for _, batch := range []bool{false, true} {
		cfg := core.Config{
			Nodes:     5,
			PageSize:  512,
			HeapBytes: 1 << 20,
			Protocol:  core.LRC,
			Batch:     batch,
		}
		msgs[batch], sums[batch] = runSOR(t, cfg, apps.NewSOR(48, 32, 6))
	}
	if sums[false] != sums[true] {
		t.Fatalf("batching changed the result: %016x vs %016x", sums[false], sums[true])
	}
	reduction := 100 * (1 - float64(msgs[true])/float64(msgs[false]))
	t.Logf("sor+lrc: %d -> %d msgs (%.1f%% fewer)", msgs[false], msgs[true], reduction)
	if reduction < 30 {
		t.Fatalf("batching saved only %.1f%% of messages (%d -> %d), want >= 30%%",
			reduction, msgs[false], msgs[true])
	}
}

// TestBatchedTCPChecksumIdentity runs the batched protocol on real
// TCP loopback sockets and requires the simulator's exact result:
// batching changes framing, never outcomes, on either transport.
func TestBatchedTCPChecksumIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback cluster is slow")
	}
	cfg := core.Config{
		Nodes:       3,
		Protocol:    core.LRC,
		Batch:       true,
		CallTimeout: 30 * time.Second,
	}
	mk := func() apps.App { return apps.NewSOR(24, 16, 6) }
	_, simSum := runSOR(t, cfg, mk())

	res, err := cluster.Run(cluster.Spec{Cfg: cfg, App: mk, TCP: true})
	if err != nil {
		t.Fatalf("tcp loopback: %v", err)
	}
	if !res.HasChecksum {
		t.Fatal("tcp loopback returned no checksum")
	}
	if res.Checksum != simSum {
		t.Fatalf("tcp checksum %016x differs from simulator %016x", res.Checksum, simSum)
	}
}

package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
)

// TestMessageConservation checks the per-node traffic counters against
// what a network can do to a message, not against a second ledger:
// summed over the cluster, every message sent is received once, except
// those the network dropped (never received) and duplicated (received
// twice). Fault-free, every byte sent is a byte received. Sampling
// makes drive wait for the counters to stand still on the simulator, so
// nothing is in flight when they are read; over TCP each node reads its
// own after the shutdown barrier, and the balance also shows that the
// end-of-stream frame Close writes is not a message. A count site that
// forgets a delivery or a drop path breaks the balance.
func TestMessageConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty cluster runs, a third under chaos, a third over TCP")
	}
	protos := []core.Protocol{core.SCFixed, core.LRC, core.HLRC, core.ERCInvalidate, core.CentralServer}
	const nodes = 4
	plan := chaos.DefaultPlan(nodes, 27)
	networks := []struct {
		name  string
		chaos *chaos.Plan
		tcp   bool
	}{{"chaos=false", nil, false}, {"chaos=true", &plan, false}, {"tcp", nil, true}}
	for _, proto := range protos {
		for _, nw := range networks {
			for _, batch := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/batch=%v", proto, nw.name, batch)
				t.Run(name, func(t *testing.T) {
					res, err := Run(Spec{
						Cfg:     core.Config{Nodes: nodes, Protocol: proto, Batch: batch, Seed: 27},
						App:     func() apps.App { return apps.NewSOR(24, 16, 4) },
						Chaos:   nw.chaos,
						TCP:     nw.tcp,
						Observe: Observe{Sample: true, SampleInterval: 10 * time.Millisecond},
					})
					if err != nil {
						t.Fatal(err)
					}
					s := res.Total()
					if s.MsgsSent-s.MsgsDropped+s.MsgsDuplicated != s.MsgsRecv {
						t.Fatalf("sent %d - dropped %d + duplicated %d != received %d",
							s.MsgsSent, s.MsgsDropped, s.MsgsDuplicated, s.MsgsRecv)
					}
					if nw.chaos == nil && s.BytesSent != s.BytesRecv {
						t.Fatalf("fault-free: %d bytes sent, %d received", s.BytesSent, s.BytesRecv)
					}
				})
			}
		}
	}
}

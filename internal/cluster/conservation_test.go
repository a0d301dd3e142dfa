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
// summed over the cluster, every protocol message sent is delivered
// once, byte for byte, on every network — under chaos because the
// simulator's links recover every frame. And the frames balance: the
// frames sent (messages, link retransmissions, acks and NACKs), less
// those the network dropped, plus those it duplicated, are the frames
// received (messages delivered, frames the links discarded at the
// sequence check, acks and NACKs); fault-free and over TCP every term
// but the messages is zero. Sampling makes drive wait for the counters
// to stand still on the simulator, so nothing is in flight and no
// retransmission due when they are read; over TCP each node reads its
// own after the shutdown barrier, and the balance also shows that the
// end-of-stream frame Close writes is not a message. A count site that
// forgets a delivery, a discard or a drop path breaks a balance.
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
					if s.MsgsSent != s.MsgsRecv || s.BytesSent != s.BytesRecv {
						t.Fatalf("messages: sent %d (%d B), delivered %d (%d B)", s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
					}
					sent := s.MsgsSent + s.Retries + s.LinkAcks
					recv := s.MsgsRecv + s.DupRequests + s.LinkAcksRecv
					if sent-s.MsgsDropped+s.MsgsDuplicated != recv {
						t.Fatalf("frames: sent %d - dropped %d + duplicated %d != received %d (%v)",
							sent, s.MsgsDropped, s.MsgsDuplicated, recv, s)
					}
					if nw.chaos != nil && (s.MsgsDropped == 0 || s.Retries == 0) {
						t.Fatalf("chaos cell saw no drop or no retransmission: %v", s)
					}
				})
			}
		}
	}
}

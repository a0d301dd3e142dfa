package simnet_test

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// TestTransportConformance runs the shared transport contract suite
// against the simulator backend.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, simEndpoints)
}

// TestFramesBeforeAttach: messages sent before Attach wait in the
// delivery queue and are delivered in order after it.
func TestFramesBeforeAttach(t *testing.T) {
	transporttest.FramesBeforeAttach(t, simEndpoints)
}

// simEndpoints is the conformance suite's factory.
func simEndpoints(t *testing.T, n int) ([]transport.Endpoint, func()) {
	net, err := simnet.New(simnet.Config{Nodes: n})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	t.Cleanup(net.Close)
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = net.Endpoint(transport.NodeID(i))
	}
	return eps, net.Close
}

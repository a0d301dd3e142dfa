// Package transport defines the pluggable message substrate under
// the DSM system: the Endpoint a node runtime sends and receives
// through, and the Transport that wires a cluster's endpoints
// together. Two implementations exist — the in-process simulator
// (internal/simnet), which remains the default and the vehicle for
// latency/fault modeling, and a real TCP backend
// (internal/transport/tcp) that lets each DSM node run as its own OS
// process. Any future backend plugs in by passing the shared
// conformance suite (internal/transport/transporttest).
//
// The interface is exactly what internal/nodecore and internal/core
// consume of the simulator: node identity, a Send that encodes one
// wire.Msg toward a peer, a Recv channel of decoded messages that
// closes at shutdown, and per-node traffic accounting hooked into
// internal/stats. Delivery contract (checked by the conformance
// suite): per directed (from, to) pair order is preserved, messages
// are delivered as fresh decoded copies (senders may reuse the Msg
// and its payload immediately), and there is no self-delivery — a
// Send addressed to the endpoint's own node fails, counting nothing
// (nodecore delivers a node's messages to itself without a
// transport). Each backend bounds its Recv queue by a fixed depth.
package transport

import (
	"fmt"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/wire"
)

// NodeID identifies a node on a transport. It is an alias (not a
// defined type) so the historical simnet.NodeID and this identifier
// are interchangeable.
type NodeID = int32

// Endpoint is one node's attachment to the cluster interconnect.
type Endpoint interface {
	// ID returns the endpoint's node id in [0, Nodes).
	ID() NodeID
	// SetStats attaches a per-node counter set; nil disables
	// accounting. Must be called before traffic flows.
	SetStats(st *stats.Node)
	// Recv returns the channel of delivered messages. The channel is
	// closed when the transport shuts down.
	Recv() <-chan *wire.Msg
	// Send transmits m to m.To, stamping From with this endpoint
	// unless the caller preserved an origin while forwarding. The
	// message is encoded at the call and the caller may reuse m (and
	// its Data) immediately. m.To must be another node: a send to this
	// endpoint's own id returns an error naming it. A nil error does
	// not guarantee delivery — backends may drop (faults, dead peers);
	// loss recovery belongs to the nodecore reliability layer.
	Send(m *wire.Msg) error
}

// Transport connects a cluster's endpoints.
type Transport interface {
	// Name identifies the backend ("sim", "tcp") in reports.
	Name() string
	// Nodes returns the cluster size.
	Nodes() int
	// Endpoint returns node id's endpoint, or nil if that node is not
	// hosted by this process (multi-process backends host exactly
	// one).
	Endpoint(id NodeID) Endpoint
	// Counters snapshots the transport-level traffic counters.
	Counters() CountersSnapshot
	// Close shuts the transport down: in-flight messages may be
	// discarded, subsequent sends fail or drop, and every local
	// endpoint's Recv channel is closed.
	Close()
}

// Counters is the transport-level traffic accounting shared by all
// backends: messages and bytes that crossed the substrate, plus
// connection-management events that only real backends exercise. All
// fields are updated atomically.
type Counters struct {
	MsgsSent   atomic.Int64 // messages handed to the substrate
	BytesSent  atomic.Int64 // encoded bytes handed to the substrate
	MsgsRecv   atomic.Int64 // messages delivered to local endpoints
	BytesRecv  atomic.Int64 // encoded bytes delivered to local endpoints
	Dials      atomic.Int64 // outbound connections established
	Accepts    atomic.Int64 // inbound connections accepted
	Redials    atomic.Int64 // reconnects after a broken connection
	SendErrors atomic.Int64 // sends that failed at the substrate
}

// Snapshot copies the counters into plain values.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		MsgsSent:   c.MsgsSent.Load(),
		BytesSent:  c.BytesSent.Load(),
		MsgsRecv:   c.MsgsRecv.Load(),
		BytesRecv:  c.BytesRecv.Load(),
		Dials:      c.Dials.Load(),
		Accepts:    c.Accepts.Load(),
		Redials:    c.Redials.Load(),
		SendErrors: c.SendErrors.Load(),
	}
}

// CountersSnapshot is a point-in-time copy of a transport's counters.
type CountersSnapshot struct {
	MsgsSent, BytesSent int64
	MsgsRecv, BytesRecv int64
	Dials, Accepts      int64
	Redials, SendErrors int64
}

// String renders the snapshot compactly, omitting zero connection
// counters (which stay zero on the simulator).
func (s CountersSnapshot) String() string {
	out := fmt.Sprintf("msgs_sent=%d bytes_sent=%d msgs_recv=%d bytes_recv=%d",
		s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
	if s.Dials != 0 || s.Accepts != 0 || s.Redials != 0 || s.SendErrors != 0 {
		out += fmt.Sprintf(" dials=%d accepts=%d redials=%d send_errors=%d",
			s.Dials, s.Accepts, s.Redials, s.SendErrors)
	}
	return out
}

// Add returns the field-wise sum of two snapshots (for aggregating a
// multi-transport loopback cluster).
func (s CountersSnapshot) Add(o CountersSnapshot) CountersSnapshot {
	return CountersSnapshot{
		MsgsSent:   s.MsgsSent + o.MsgsSent,
		BytesSent:  s.BytesSent + o.BytesSent,
		MsgsRecv:   s.MsgsRecv + o.MsgsRecv,
		BytesRecv:  s.BytesRecv + o.BytesRecv,
		Dials:      s.Dials + o.Dials,
		Accepts:    s.Accepts + o.Accepts,
		Redials:    s.Redials + o.Redials,
		SendErrors: s.SendErrors + o.SendErrors,
	}
}

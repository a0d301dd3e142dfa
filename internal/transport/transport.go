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
// wire.Msg toward a peer, delivery into the one function the runtime
// attaches, and accounting into a per-node internal/stats counter set,
// the only ledger: each endpoint owns one from construction and the
// runtime replaces it with the node's. Delivery contract (checked by
// the conformance suite): per directed (from, to) pair, deliveries
// start in send order; messages are delivered as fresh decoded copies
// (senders may reuse the Msg and its payload immediately); messages
// that arrive before Attach wait for it; down follows the last
// delivery; and there is no self-delivery — a Send addressed to the
// endpoint's own node fails, counting nothing (nodecore delivers a
// node's messages to itself without a transport). The backend chooses
// the delivering goroutine: the simulator's sender for a message due
// now at an idle receiver, else its queue goroutine; TCP's one delivery
// goroutine per endpoint. Only the simulator loses messages (by
// injection, which nodecore's reliability layer recovers); any other
// backend delivers in order or goes down.
package transport

import (
	"errors"

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
	// SetStats replaces the counter set the endpoint owns from
	// construction with the node's, so the endpoint's traffic, fault and
	// connection events land in the node's one ledger. Must be called
	// before traffic flows.
	SetStats(st *stats.Node)
	// Attach starts delivery into deliver; down runs once, after the
	// last delivery, when the transport shuts down or loses a peer. An
	// endpoint is attached once: again, it returns ErrAttached.
	Attach(deliver func(*wire.Msg), down func()) error
	// Recv attaches a bounded channel, closed on down (Pull, or a
	// backend's own inbox), and returns it, the same one on every call:
	// the pull form for tests and tools. No runtime calls it.
	Recv() <-chan *wire.Msg
	// Send transmits m to m.To, stamping From with this endpoint
	// unless the caller preserved an origin while forwarding. The
	// message is encoded at the call and the caller may reuse m (and
	// its Data) immediately. m.To must be another node: a send to this
	// endpoint's own id returns an error naming it. A nil error does
	// not guarantee delivery: faults, dead peers.
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
	// Close shuts the transport down: in-flight messages may be
	// discarded, subsequent sends fail or drop, and every local
	// endpoint goes down.
	Close()
}

// ErrAttached is Attach's error for an endpoint attached before.
var ErrAttached = errors.New("transport: endpoint already attached")

// InboxDepth bounds every receive queue a backend or Pull keeps.
const InboxDepth = 4096

// Pull is the Recv adapter: it attaches to an endpoint a function that
// feeds a channel of InboxDepth (waiting while it is full, until stop
// closes) and closes it on down. It panics if the endpoint is attached.
func Pull(attach func(func(*wire.Msg), func()) error, stop <-chan struct{}) <-chan *wire.Msg {
	ch := make(chan *wire.Msg, InboxDepth)
	if err := attach(func(m *wire.Msg) {
		select {
		case ch <- m: // the common case, without selecting on stop
		default:
			select {
			case ch <- m:
			case <-stop:
			}
		}
	}, func() { close(ch) }); err != nil {
		panic(err)
	}
	return ch
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Chrome-trace-event exporter. The output is the JSON object format
// ({"traceEvents": [...]}) understood by Perfetto and chrome://tracing:
// one track (tid) per node under a single process, complete ("X")
// events for spans measured by the paired event types, instant ("i")
// events for point occurrences, and flow arrows ("s"/"f" pairs keyed
// by request id) connecting each RPC send to its matching recv across
// tracks.

// chromeEvent is one entry of the traceEvents array. Timestamps and
// durations are microseconds (floats, so sub-µs precision survives).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePID = 1

// WriteChrome exports per-node streams as Chrome trace JSON. Streams
// need not be merged or sorted; viewers order by timestamp.
func WriteChrome(w io.Writer, streams []Stream) error {
	var base int64 = 0
	for i := range streams {
		if len(streams[i].Events) == 0 {
			continue
		}
		if base == 0 || streams[i].EpochUnixNs < base {
			base = streams[i].EpochUnixNs
		}
	}
	evs := make([]chromeEvent, 0, 256)
	for i := range streams {
		s := &streams[i]
		if s.Node < 0 {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: s.Node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", s.Node)},
		})
		for _, e := range s.Events {
			abs := s.EpochUnixNs + e.TS
			ts := float64(abs-base) / 1e3
			dur := float64(e.Dur) / 1e3
			ce := chromeEvent{TS: ts, PID: chromePID, TID: s.Node}
			switch e.Type {
			case EvFaultEnd:
				ce.Ph, ce.Cat = "X", "fault"
				ce.Name = "read fault"
				if e.Arg == 1 {
					ce.Name = "write fault"
				}
				ce.TS, ce.Dur = ts-dur, dur
				ce.Args = map[string]any{"page": e.Page}
			case EvLockGrant:
				ce.Ph, ce.Cat = "X", "sync"
				ce.Name = fmt.Sprintf("lock %d", e.Lock)
				ce.TS, ce.Dur = ts-dur, dur
			case EvBarRelease:
				ce.Ph, ce.Cat = "X", "sync"
				ce.Name = fmt.Sprintf("barrier %d", e.Lock)
				ce.TS, ce.Dur = ts-dur, dur
			case EvSend, EvRecv:
				ce.Ph, ce.Cat, ce.S = "i", "rpc", "t"
				ce.Name = wire.Kind(e.MsgKind()).String()
				ce.Args = map[string]any{"peer": e.Peer}
				evs = append(evs, ce)
				if e.Req == 0 {
					continue
				}
				// Flow arrow: one start per send, one end per recv, both
				// keyed by (req, kind) so request and reply legs stay
				// distinct and the viewer draws send -> recv across tracks.
				fl := chromeEvent{
					Name: ce.Name, TS: ts, PID: chromePID, TID: s.Node, Cat: "rpc",
					ID: fmt.Sprintf("%x.%d", e.Req, e.MsgKind()),
				}
				if e.Type == EvSend {
					fl.Ph = "s"
				} else {
					fl.Ph, fl.BP = "f", "e"
				}
				evs = append(evs, fl)
				continue
			case EvFaultBegin, EvLockAcquire, EvBarArrive:
				continue // rendered as the span of their paired end event
			default:
				ce.Ph, ce.S = "i", "t"
				ce.Name = e.Type.String()
				switch e.Type {
				case EvRetry:
					ce.Cat = "rpc"
					ce.Name = "retry " + wire.Kind(e.MsgKind()).String()
					ce.Args = map[string]any{"peer": e.Peer, "req": fmt.Sprintf("%x", e.Req)}
				case EvBatchFlush:
					ce.Cat = "batch"
					ce.Args = map[string]any{"peer": e.Peer, "members": e.Arg}
				case EvDiffPush, EvDiffFetch:
					ce.Cat = "diff"
					ce.Args = map[string]any{"peer": e.Peer, "page": e.Page}
				case EvChaos:
					ce.Cat = "chaos"
					ce.Name = "chaos " + ChaosName(e.Arg)
					ce.Args = map[string]any{"peer": e.Peer}
				}
			}
			evs = append(evs, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}

package nodecore

import (
	"time"

	"repro/internal/transport"
)

// rtoFloor is the shortest reply wait, and the granularity term of
// the timeout (RFC 6298's G). This repository's hosts wake timers
// about a millisecond late, so anything finer buys little recovery
// time and many spurious retransmissions.
const rtoFloor = time.Millisecond

// rttEstimator is one destination's smoothed round trip, in the
// Jacobson/Karels form TCP uses (RFC 6298: gains 1/8 and 1/4). It is
// fed by retryLoop with replies to first transmissions only (Karn's
// rule) and lives under Runtime.retryMu; srtt == 0 means no sample yet.
type rttEstimator struct {
	srtt, rttvar time.Duration
	// backed is the longest wait a call to this destination has backed
	// off to since the last sample. The other half of Karn's rule: when
	// the round trip outgrows the estimate every call is retransmitted
	// and none yields a sample, so the next call must start from the
	// backed-off wait until a first transmission is answered.
	backed time.Duration
}

func (e *rttEstimator) sample(r time.Duration) {
	e.backed = 0
	if r <= 0 {
		r = 1
	}
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
		return
	}
	d := e.srtt - r
	if d < 0 {
		d = -d
	}
	e.rttvar += (d - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// rto is the base of the first reply wait for a call to this
// destination: srtt + max(4*rttvar, rtoFloor), times 4/3 so that the
// short end of retryLoop's +/-25% jitter still covers it — a steady
// peer is not retransmitted to early — or the backed-off wait if that
// is longer, and no longer than ceil. While there is no sample it is
// ceil itself, RetryPolicy.AttemptTimeout.
func (e *rttEstimator) rto(ceil time.Duration) time.Duration {
	if e.srtt == 0 {
		return ceil
	}
	return min(max((e.srtt+max(4*e.rttvar, rtoFloor))*4/3, e.backed), ceil)
}

// PeerRTT is a snapshot of one destination's round-trip estimate.
type PeerRTT struct {
	Peer   transport.NodeID `json:"peer"`
	SRTT   time.Duration    `json:"srtt_ns"` // 0: no sample yet
	RTTVar time.Duration    `json:"rttvar_ns"`
	RTO    time.Duration    `json:"rto_ns"` // base of the next call's first reply wait
}

// PeerRTTs snapshots the per-destination estimates, indexed by node
// id; nil with reliability off.
func (r *Runtime) PeerRTTs() []PeerRTT {
	if !r.reliable {
		return nil
	}
	out := make([]PeerRTT, len(r.rtt))
	r.retryMu.Lock()
	for i := range r.rtt {
		e := &r.rtt[i]
		out[i] = PeerRTT{transport.NodeID(i), e.srtt, e.rttvar, e.rto(r.retry.AttemptTimeout)}
	}
	r.retryMu.Unlock()
	return out
}

package simnet

import "time"

// rtoFloor is the shortest retransmission timeout, and the granularity
// term of the timeout (RFC 6298's G). This repository's hosts wake
// timers about a millisecond late, so anything finer buys little
// recovery time and many spurious retransmissions.
const rtoFloor = time.Millisecond

// rttEstimator is one link's smoothed round trip, in the
// Jacobson/Karels form TCP uses (RFC 6298: gains 1/8 and 1/4). It is
// fed with the acks of frames sent once only (Karn's rule) and lives
// under the link's lock; srtt == 0 means no sample yet.
type rttEstimator struct {
	srtt, rttvar time.Duration
	// backed is the timeout the link has backed off to since the last
	// sample. The other half of Karn's rule: when the round trip
	// outgrows the estimate every frame is retransmitted and none
	// yields a sample, so later frames must keep the backed-off timeout
	// until a frame sent once is acknowledged.
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

// rto is the retransmission timeout: srtt + max(4*rttvar, rtoFloor),
// rtoInit before the first sample, or the backed-off timeout if that
// is longer.
func (e *rttEstimator) rto() time.Duration {
	base := rtoInit
	if e.srtt != 0 {
		base = e.srtt + max(4*e.rttvar, rtoFloor)
	}
	return max(base, e.backed)
}

// backoff doubles the timeout after an expiry, up to rtoCap; a timeout
// already past the cap (a slow simulated link) stays where it is.
func (e *rttEstimator) backoff() {
	cur := e.rto()
	e.backed = max(cur, min(2*cur, rtoCap))
}

package nodecore

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// TestRTTEstimator drives the estimator alone: RFC 6298's start-up
// rule, convergence on a steady round trip, one outlier's rise and
// decay, and the floor/ceiling of the timeout it yields.
func TestRTTEstimator(t *testing.T) {
	const ceil = 50 * ms
	feed := func(e *rttEstimator, r time.Duration, n int) {
		for i := 0; i < n; i++ {
			e.sample(r)
		}
	}
	t.Run("no sample", func(t *testing.T) {
		var e rttEstimator
		if got := e.rto(ceil); got != ceil {
			t.Fatalf("rto with no sample = %v, want the ceiling %v", got, ceil)
		}
	})
	t.Run("first sample", func(t *testing.T) {
		var e rttEstimator
		e.sample(8 * ms)
		if e.srtt != 8*ms || e.rttvar != 4*ms {
			t.Fatalf("after first sample srtt=%v rttvar=%v, want 8ms 4ms", e.srtt, e.rttvar)
		}
	})
	t.Run("converges", func(t *testing.T) {
		var e rttEstimator
		e.sample(40 * ms) // a bad first guess
		feed(&e, 10*ms, 60)
		if d := e.srtt - 10*ms; d < 0 || d > 50*time.Microsecond {
			t.Fatalf("srtt = %v after 60 samples of 10ms", e.srtt)
		}
		if e.rttvar > 50*time.Microsecond {
			t.Fatalf("rttvar = %v after 60 samples of 10ms", e.rttvar)
		}
	})
	t.Run("outlier", func(t *testing.T) {
		var e rttEstimator
		feed(&e, 2*ms, 40)
		steady := e.rto(time.Hour)
		e.sample(100 * ms) // 50x
		if got := e.rto(time.Hour); got < 100*ms {
			t.Fatalf("rto after a 100ms outlier = %v, want it raised past the outlier", got)
		}
		// srtt's excess loses an eighth per steady sample and feeds
		// rttvar, which loses a quarter: the raise halves about every
		// five samples — under twice the steady timeout after 35, within
		// 10% of it after 50.
		feed(&e, 2*ms, 35)
		if got := e.rto(time.Hour); got > 2*steady {
			t.Fatalf("rto 35 samples after the outlier = %v, steady %v", got, steady)
		}
		feed(&e, 2*ms, 15)
		if got := e.rto(time.Hour); got > steady+steady/10 {
			t.Fatalf("rto 50 samples after the outlier = %v, steady %v", got, steady)
		}
	})
	t.Run("floor and ceiling", func(t *testing.T) {
		var e rttEstimator
		feed(&e, 12*time.Microsecond, 20)
		// (12us + the 1ms granularity term) * 4/3
		if got := e.rto(ceil); got < rtoFloor*4/3 || got > rtoFloor*3/2 {
			t.Fatalf("rto on a 12us round trip = %v, want just above 4/3 of the floor %v", got, rtoFloor)
		}
		feed(&e, time.Second, 20)
		if got := e.rto(ceil); got != ceil {
			t.Fatalf("rto on a 1s round trip = %v, want the ceiling %v", got, ceil)
		}
		e = rttEstimator{}
		e.sample(0) // a clock that did not advance still counts as a sample
		if got := e.rto(ceil); got != (rtoFloor+1)*4/3 {
			t.Fatalf("rto after a zero-length sample = %v, want 4/3 of the floor", got)
		}
	})
}

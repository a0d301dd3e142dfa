package lrc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// TestApplyOrder: validate applies notices by the sum of their
// intervals' clocks; notices whose sums are equal (concurrent
// intervals) apply by writer, then by interval number, whatever order
// they were gathered in.
func TestApplyOrder(t *testing.T) {
	want := []struct {
		ref noticeRef
		vc  vclock.VC
	}{
		{noticeRef{1, 1}, vclock.VC{0, 1, 0}},
		{noticeRef{0, 2}, vclock.VC{2, 1, 0}},
		{noticeRef{1, 2}, vclock.VC{1, 2, 0}},
		{noticeRef{2, 1}, vclock.VC{0, 2, 1}},
		{noticeRef{2, 3}, vclock.VC{0, 0, 3}}, // not reachable beside (2, 1), but the key is total
		{noticeRef{0, 5}, vclock.VC{5, 1, 1}},
	}
	nds := make([]noticeDiff, len(want))
	for i, w := range want {
		nds[i] = noticeDiff{noticeRef: w.ref, sum: vcSum(w.vc)}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		got := slices.Clone(nds)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		slices.SortFunc(got, byApplyOrder)
		for i, w := range want {
			if got[i].noticeRef != w.ref {
				t.Fatalf("trial %d: position %d holds %v, want %v (%v)", trial, i, got[i].noticeRef, w.ref, got)
			}
		}
	}
}

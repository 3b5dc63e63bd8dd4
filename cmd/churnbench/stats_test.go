package main

import "testing"

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5, 3, 7}); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of no samples = %v, want 0", got)
	}
}

// TestTailNeedsTenSamplesBeyond pins the percentile rule: a tail
// percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		wantOK bool
	}{
		{5, 0, false},    // the flood-1m repetitions: no tail at all
		{99, 0, false},   // p90 would have 9.9 samples beyond it
		{100, 90, true},  // exactly ten beyond p90; p95 has five
		{999, 95, true},  // p99 would have 9.99
		{1000, 99, true}, // exactly ten beyond p99
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.wantOK || pct != c.pct {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v (ok %v)", c.n, pct, ok, c.pct, c.wantOK)
		}
		if ok && float64(c.n)-1-v < 9 {
			t.Errorf("tail of %d samples: value %v leaves fewer than ten samples beyond it", c.n, v)
		}
	}
}

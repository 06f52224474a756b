package main

import (
	"math"
	"testing"
)

func sampleOf(xs ...float64) *sample {
	s := &sample{}
	for _, x := range xs {
		s.add(x)
	}
	return s
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 7, 7}, 7},
	} {
		if got := sampleOf(tc.xs...).median(); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(sampleOf().median()) {
		t.Error("median of an empty sample should be NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 989: ten observations beyond it
		{999, 0.99, false}, // rank 989: nine beyond
		{100, 0.90, true},  // rank 89: ten beyond
		{100, 0.91, false}, // rank 90: nine beyond
		{11, 0.01, true},   // rank 0: ten beyond
		{10, 0.5, false},   // a tiny sample supports nothing
		{0, 0.5, false},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true},
		{2000, 0.995, true},
		{10000, 0.999, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
		{5, 0, false},
	} {
		got, ok := highestSupported(tc.n)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("highestSupported(%d) = %v,%v, want %v,%v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && !supports(tc.n, got) {
			t.Errorf("highestSupported(%d) = %v is not itself supported", tc.n, got)
		}
	}
}

func TestPercentileSmallAndTied(t *testing.T) {
	// Small sample: the value is still reported, flagged unsupported.
	s := sampleOf(5, 1, 4, 2, 3)
	if v, ok := s.percentile(0.99); v != 5 || ok {
		t.Errorf("p99 of 5 samples = %v,%v, want 5,false", v, ok)
	}
	if v, _ := s.percentile(0.5); v != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", v)
	}
	// Ties: every percentile of a constant sample is the constant.
	tied := &sample{}
	for i := 0; i < 1000; i++ {
		tied.add(2)
	}
	if v, ok := tied.percentile(0.99); v != 2 || !ok {
		t.Errorf("p99 of 1000 ties = %v,%v, want 2,true", v, ok)
	}
	// Ties at the tail: 990 small values and 10 large ones put p99 on the
	// last small value, with exactly ten beyond it.
	tail := &sample{}
	for i := 0; i < 990; i++ {
		tail.add(1)
	}
	for i := 0; i < 10; i++ {
		tail.add(100)
	}
	if v, ok := tail.percentile(0.99); v != 1 || !ok {
		t.Errorf("p99 with ten tied outliers = %v,%v, want 1,true", v, ok)
	}
}

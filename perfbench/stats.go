package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile is only quoted where at least this many observations exceed
// it, so one outlier cannot define it.
const minTail = 10

// sample is a set of observations of one quantity (milliseconds, bytes, …).
type sample struct {
	xs     []float64
	sorted bool
}

func (s *sample) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *sample) n() int { return len(s.xs) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// median returns the middle observation (the mean of the two middle ones
// for an even count); NaN for an empty sample.
func (s *sample) median() float64 {
	s.sort()
	n := len(s.xs)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s.xs[n/2]
	default:
		return (s.xs[n/2-1] + s.xs[n/2]) / 2
	}
}

// rank is the nearest-rank index of percentile p (0 < p < 1) in a sorted
// sample of n: the smallest index i with (i+1)/n >= p.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// supports reports whether a sample of n observations supports percentile
// p: at least minTail observations rank beyond it.
func supports(n int, p float64) bool {
	return n > 0 && n-1-rank(n, p) >= minTail
}

// highestSupported returns the highest percentile, on a grid of 0.1
// percentage points, that a sample of n supports, and false when even the
// median has fewer than minTail observations beyond it.
func highestSupported(n int) (float64, bool) {
	for pm := 999; pm >= 500; pm-- {
		if p := float64(pm) / 1000; supports(n, p) {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of the sample and
// whether the sample supports it (see supports). The value is returned
// either way so a short run still prints a number beside its warning.
func (s *sample) percentile(p float64) (float64, bool) {
	s.sort()
	if len(s.xs) == 0 {
		return math.NaN(), false
	}
	return s.xs[rank(len(s.xs), p)], supports(len(s.xs), p)
}

package main

import (
	"math"
	"sort"
)

// samples holds the host-time measurements of one run: samples[u][p] is
// the duration, in seconds, of unit u on timed pass p. A unit is one short
// call into the simulator's public API, identical on every pass.
//
// The floor estimator reports Σ over units of the minimum over passes.
// On a shared host the noise is additive and arrives in multi-second
// bursts: a whole pass is rarely clean, but each unit is clean on some
// pass, so the sum of per-unit minima converges on the undisturbed time
// where the median of passes and even the best whole pass do not (see
// README.md, "Why the floor").
type samples [][]float64

// add appends one observation of unit u, growing the table as needed.
func (s *samples) add(u int, seconds float64) {
	for len(*s) <= u {
		*s = append(*s, nil)
	}
	(*s)[u] = append((*s)[u], seconds)
}

// floor is Σ units min over passes.
func (s samples) floor() float64 {
	var sum float64
	for _, u := range s {
		sum += minOf(u)
	}
	return sum
}

// quantileSum is Σ units of the q-quantile over passes: the median at
// 0.5, which is what the floor is judged against, and the p90.
func (s samples) quantileSum(q float64) float64 {
	var sum float64
	for _, u := range s {
		sum += quantile(u, q)
	}
	return sum
}

// bestPass is the smallest whole-pass total, counting only passes every
// unit took part in.
func (s samples) bestPass() float64 {
	n := s.passes()
	best := math.Inf(1)
	for p := 0; p < n; p++ {
		var sum float64
		for _, u := range s {
			sum += u[p]
		}
		best = math.Min(best, sum)
	}
	if n == 0 {
		return 0
	}
	return best
}

// passes is the number of passes every unit was observed on.
func (s samples) passes() int {
	if len(s) == 0 {
		return 0
	}
	n := len(s[0])
	for _, u := range s {
		if len(u) < n {
			n = len(u)
		}
	}
	return n
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

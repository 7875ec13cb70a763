package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so a spread computed here matches one
// computed from the printed values. A single value is its own quartiles;
// none gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) by linear
// interpolation between the closest ranks; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// highPercentile picks the highest of the usual reporting percentiles
// that still has at least ten samples above it among n, so a tail figure
// always rests on more than a handful of samples. It returns 0 when n is
// too small for any of them, in which case only the median is reported.
func highPercentile(n int) float64 {
	for _, c := range []struct {
		p    float64
		minN int // n at which ten samples lie above p
	}{{99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}} {
		if n >= c.minN {
			return c.p
		}
	}
	return 0
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie strictly above a reported
// percentile: a p99 read off fewer than ten slower samples is one or two
// outliers, not a percentile.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the sample at rank ceil(q·n). It is an exact order statistic, never an
// interpolation or a histogram bucket bound. It fails when fewer than
// minTail samples lie beyond that rank.
func quantile(sorted []time.Duration, q float64) (time.Duration, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("quantile %v of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%v needs %d samples beyond it, have %d of %d",
			q*100, minTail, beyond, n)
	}
	return sorted[rank-1], nil
}

// sortDurations sorts samples in place, ascending.
func sortDurations(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durationMedian is median over durations, in the same units.
func durationMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

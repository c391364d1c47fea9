package main

import "sort"

// median returns the median of v (0 for an empty slice). v is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tail is the latency tail of one run: the highest percentile that
// still has at least minBeyond samples above it.
type tail struct {
	Value      float64 // latency at that percentile
	Percentile float64 // 100·(rank+1)/n, the share of samples at or below Value
	Beyond     int     // samples strictly above the percentile's rank
	Samples    int     // total samples
	Median     bool    // too few samples for a tail above the median; Value is the median
}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile, so the tail never rests on one or two outliers.
const minBeyond = 10

// tailOf applies the rule "the highest percentile with at least
// minBeyond samples beyond it" to v. With n samples sorted ascending
// the sample at rank r has n-1-r samples beyond it, so the tail is
// rank n-1-minBeyond. Below 2·minBeyond+1 samples that rank falls
// under the median, or does not exist; the tail is then reported as
// the median, with Median set so the report can say so.
func tailOf(v []float64) tail {
	s := sortedCopy(v)
	n := len(s)
	r := n - 1 - minBeyond
	if n == 0 || r < n/2 {
		return tail{Value: median(v), Percentile: 50, Beyond: n / 2, Samples: n, Median: true}
	}
	return tail{
		Value:      s[r],
		Percentile: 100 * float64(r+1) / float64(n),
		Beyond:     n - 1 - r,
		Samples:    n,
	}
}

// quartiles returns Q1, median and Q3 with the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method),
// so spreads computed here match the ones the acceptance rules use.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// Exclusive method, transcribed from CPython: j = i·(n+1)//4
		// clamped to [1, n-1], then linear inter- (or, at the clamped
		// ends, extra-) polation between the j-th and (j+1)-th values.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

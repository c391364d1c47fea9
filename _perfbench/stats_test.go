package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: tailOf must sort
	}
	return v
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{40, 30, 75}, // rank 29: samples 31..40 lie beyond
		{21, 11, 100 * 11.0 / 21},
		{100, 90, 90},
	} {
		got := tailOf(seq(tc.n))
		if got.Median || got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Beyond != minBeyond {
			t.Errorf("n=%d: got %+v, want value %g at p%.2f with %d beyond", tc.n, got, tc.value, tc.pct, minBeyond)
		}
	}
}

func TestTailFallsBackToMedianWithFewSamples(t *testing.T) {
	for _, n := range []int{1, 7, 11, 20} {
		got := tailOf(seq(n))
		if !got.Median || got.Value != median(seq(n)) {
			t.Errorf("n=%d: got %+v, want the median %g flagged", n, got, median(seq(n)))
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9}, 0.925, 2.65, 8.2},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 3.5, 7, 10.5},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestRoundsSplitTheSeconds(t *testing.T) {
	for _, tc := range []struct {
		seconds, round float64
		rounds         int
	}{
		{15, 5, 3},
		{12, 4, 3},
		{5, 5, 1},
		{1, 1, 1},
	} {
		o := options{seconds: tc.seconds}
		if n, r := numRounds(o), roundSeconds(o); n != tc.rounds || r != tc.round {
			t.Errorf("%gs: %d rounds of %gs, want %d of %gs", tc.seconds, n, r, tc.rounds, tc.round)
		}
	}
}

func TestMAEAveragesTheLowestDecksOnce(t *testing.T) {
	var samples []sample
	for k := maeDecks + 10; k >= 1; k-- {
		// Every deck is answered twice, as two rounds would; decks past
		// maeDecks err by a volt and must not count.
		mae := 1e-3
		if k > maeDecks {
			mae = 1
		}
		samples = append(samples, sample{deck: k, correct: true, mae: mae}, sample{deck: k, correct: true, mae: mae})
	}
	samples = append(samples, sample{deck: 0, mae: 5}) // a failed answer
	if got := meanMAE(samples); math.Abs(got-1e-3) > 1e-15 {
		t.Errorf("mean MAE %g, want 1e-3", got)
	}
}

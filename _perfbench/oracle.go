package main

import (
	"math"
	"sort"
	"strings"

	"irfusion/internal/circuit"
	"irfusion/internal/features"
	"irfusion/internal/grid"
	"irfusion/internal/sparse"
	"irfusion/internal/spice"
)

// The correctness oracle solves G·x = I for every distinct deck with a
// sparse direct factorization — no AMG and no Krylov solver of the
// program — refines the solution once, and rasterizes the bottom-layer
// drops at the served resolution. It runs outside every timed window.
//
// The factorization is sparse.NewCholesky on the matrix permuted into
// a geometric nested-dissection order built here from the node
// coordinates. sparse.NewOrderedCholesky (reverse Cuthill–McKee) gives
// the same kind of factor but with about 6x the fill: it factors a
// 256-die deck in about 1 s and a 512-die deck in about 17 s, against
// about 0.07 s and 0.45 s here, which is what lets every deck of every
// run be checked.

// mapTol is the per-pixel agreement a served numerical map must reach,
// as a share of the oracle's maximum drop.
const mapTol = 1e-6

// leafSize is the set size below which nested dissection stops
// splitting and orders a set as it comes.
const leafSize = 64

// factor is the Cholesky factorization of P·G·Pᵀ with P a nested
// dissection permutation (perm[new] = old).
type factor struct {
	perm []int
	chol *sparse.Cholesky
}

func newFactor(g *sparse.CSR, xs, ys []int, placed []bool) (*factor, error) {
	perm := dissect(g, xs, ys, placed)
	chol, err := sparse.NewCholesky(sparse.Permute(g, perm))
	if err != nil {
		return nil, err
	}
	return &factor{perm: perm, chol: chol}, nil
}

// dissect orders the unknowns of g by recursive coordinate bisection:
// a set is split at the median of its wider coordinate, the nodes of
// the upper half adjacent to the lower half form the separator, and
// the order is lower half, upper half, separator — so eliminating
// either half creates no fill in the other. Nodes without coordinates
// (placed false) go last.
func dissect(g *sparse.CSR, xs, ys []int, placed []bool) []int {
	n := g.RowsN
	order := make([]int, 0, n)
	var all, unplaced []int
	for i := 0; i < n; i++ {
		if placed[i] {
			all = append(all, i)
		} else {
			unplaced = append(unplaced, i)
		}
	}
	lower := make([]bool, n)
	var split func(set []int)
	split = func(set []int) {
		if len(set) <= leafSize {
			order = append(order, set...)
			return
		}
		minX, maxX, minY, maxY := xs[set[0]], xs[set[0]], ys[set[0]], ys[set[0]]
		for _, v := range set {
			minX, maxX = min(minX, xs[v]), max(maxX, xs[v])
			minY, maxY = min(minY, ys[v]), max(maxY, ys[v])
		}
		c := xs
		if maxY-minY > maxX-minX {
			c = ys
		}
		vals := make([]int, len(set))
		for i, v := range set {
			vals[i] = c[v]
		}
		sort.Ints(vals)
		cut := vals[len(vals)/2]
		if cut == vals[0] {
			// More than half the set sits on the lowest coordinate: cut
			// just above it, or give up on a set with a single one.
			i := sort.SearchInts(vals, cut+1)
			if i == len(vals) {
				order = append(order, set...)
				return
			}
			cut = vals[i]
		}
		var lo, hi, sep []int
		for _, v := range set {
			if c[v] < cut {
				lower[v] = true
				lo = append(lo, v)
			}
		}
		for _, v := range set {
			if lower[v] {
				continue
			}
			adjacent := false
			for k := g.RowPtr[v]; k < g.RowPtr[v+1] && !adjacent; k++ {
				adjacent = lower[g.ColInd[k]]
			}
			if adjacent {
				sep = append(sep, v)
			} else {
				hi = append(hi, v)
			}
		}
		for _, v := range lo {
			lower[v] = false
		}
		split(lo)
		split(hi)
		order = append(order, sep...)
	}
	split(all)
	return append(order, unplaced...)
}

// solve sets x = G⁻¹·b.
func (f *factor) solve(x, b []float64) {
	w := make([]float64, len(b))
	for n, o := range f.perm {
		w[n] = b[o]
	}
	f.chol.Solve(w, w)
	for n, o := range f.perm {
		x[o] = w[n]
	}
}

// systemOf parses and assembles a SPICE deck.
func systemOf(text string) (*circuit.Network, *circuit.System, error) {
	nl, err := spice.Parse(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	nw, err := circuit.FromNetlist(nl)
	if err != nil {
		return nil, nil, err
	}
	sys, err := nw.Assemble()
	return nw, sys, err
}

// directOracle returns the bottom-layer drop map of the deck at
// resolution res.
func directOracle(text string, res int) (*grid.Map, error) {
	nw, sys, err := systemOf(text)
	if err != nil {
		return nil, err
	}
	n := sys.N()
	xs, ys, placed := make([]int, n), make([]int, n), make([]bool, n)
	for r, node := range sys.Unknown {
		xs[r], ys[r], placed[r] = nw.Meta[node].X, nw.Meta[node].Y, nw.HasMeta[node]
	}
	f, err := newFactor(sys.G, xs, ys, placed)
	if err != nil {
		return nil, err
	}
	// One step of iterative refinement with the benchmark's own
	// residual takes the solution to working precision.
	x, r, d := make([]float64, n), make([]float64, n), make([]float64, n)
	f.solve(x, sys.I)
	mulCSR(sys.G, x, r)
	for i := range r {
		r[i] = sys.I[i] - r[i]
	}
	f.solve(d, r)
	for i := range x {
		x[i] += d[i]
	}
	return features.GoldenMap(nw, sys.FullDrops(x), res, res), nil
}

func mulCSR(g *sparse.CSR, x, y []float64) {
	for i := 0; i < g.RowsN; i++ {
		s := 0.0
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			s += g.Val[k] * x[g.ColInd[k]]
		}
		y[i] = s
	}
}

// mapCheck compares a served map with the oracle map. ok requires the
// same size and every pixel within mapTol of the oracle's maximum.
// mae is the mean absolute difference in volts.
func mapCheck(served []float64, oracle *grid.Map) (ok bool, mae float64) {
	if len(served) != len(oracle.Data) || len(served) == 0 {
		return false, math.Inf(1)
	}
	limit := mapTol * oracle.Max()
	ok = true
	sum := 0.0
	for i, v := range served {
		d := math.Abs(v - oracle.Data[i])
		if !(d <= limit) { // also catches NaN
			ok = false
		}
		sum += d
	}
	return ok, sum / float64(len(served))
}

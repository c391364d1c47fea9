package nn

// Zero-allocation regression guards for the dense GEMM and im2col
// kernels; see internal/sparse/alloc_test.go for the pattern
// rationale.

import (
	"math/rand"
	"runtime"
	"testing"

	"irfusion/internal/parallel"
	"irfusion/internal/race"
)

func pinSerialPool(t *testing.T) {
	t.Helper()
	prev := parallel.SetDefault(parallel.New(1))
	t.Cleanup(func() { parallel.SetDefault(prev) })
}

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fn()
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
	}
}

func TestZeroAllocGEMMVariants(t *testing.T) {
	pinSerialPool(t)
	const m, k, n = 8, 12, 10
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	at := make([]float64, k*m)
	bt := make([]float64, n*k)
	for i := range a {
		a[i] = float64(i%7) - 3
	}
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	copy(at, a[:k*m])
	copy(bt, b[:n*k])
	requireZeroAllocs(t, "gemm", func() { gemm(a, b, c, m, k, n, false) })
	requireZeroAllocs(t, "gemmTA", func() { gemmTA(at, b, c, m, k, n, false) })
	requireZeroAllocs(t, "gemmTB", func() { gemmTB(a, bt, c, m, k, n, false) })
}

func TestZeroAllocIm2colCol2im(t *testing.T) {
	pinSerialPool(t)
	const ic, ih, iw = 3, 9, 9
	const kh, kw, stride, pad = 3, 3, 1, 1
	oh := (ih+2*pad-kh)/stride + 1
	ow := (iw+2*pad-kw)/stride + 1
	img := make([]float64, ic*ih*iw)
	cols := make([]float64, ic*kh*kw*oh*ow)
	grad := make([]float64, ic*ih*iw)
	for i := range img {
		img[i] = float64(i%11) * 0.5
	}
	requireZeroAllocs(t, "im2col", func() {
		im2col(img, cols, ic, ih, iw, kh, kw, stride, pad, oh, ow)
	})
	requireZeroAllocs(t, "col2im", func() {
		col2im(cols, grad, ic, ih, iw, kh, kw, stride, pad, oh, ow)
	})
}

// bytesPerRun reports the heap bytes fn allocates per call, averaged
// over runs after one warm-up call.
func bytesPerRun(t *testing.T, runs int, fn func()) float64 {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation figures are meaningless under the race detector")
	}
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// convFixture is a convolution whose im2col buffer (ic·3·3 rows) is
// far larger than its output (oc channels), so a per-call column
// buffer shows up unmistakably in the allocated bytes.
func convFixture() (x, w, b *Tensor) {
	rng := rand.New(rand.NewSource(3))
	x = NewTensor(1, 8, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	w = NewParam(2, 8, 3, 3)
	w.HeInit(rng, 8*9)
	b = NewParam(2)
	b.Fill(0.1)
	return x, w, b
}

// TestInferenceTapeConvReusesColumns: after warm-up, a Conv2D on an
// inference tape allocates no column buffer — only its output — and
// matches the nil-tape result bitwise.
func TestInferenceTapeConvReusesColumns(t *testing.T) {
	pinSerialPool(t)
	x, w, b := convFixture()
	tp := NewInferenceTape()
	want := Conv2D(nil, x, w, b, 1, 1)
	got := Conv2D(tp, x, w, b, 1, 1)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] { //irfusion:exact the inference tape must not change results
			t.Fatalf("output %d: inference tape %v, nil tape %v", i, got.Data[i], want.Data[i])
		}
	}
	if got.NeedsGrad() || tp.Len() != 0 {
		t.Fatalf("inference tape recorded: needsGrad=%v, %d steps", got.NeedsGrad(), tp.Len())
	}
	colBytes := float64(8 * 9 * 16 * 16 * 8)
	outBytes := float64(want.Size() * 8)
	fresh := bytesPerRun(t, 20, func() { Conv2D(nil, x, w, b, 1, 1) })
	reused := bytesPerRun(t, 20, func() { Conv2D(tp, x, w, b, 1, 1) })
	if fresh < colBytes {
		t.Fatalf("nil-tape Conv2D allocates %.0f B, expected its %.0f B column buffer", fresh, colBytes)
	}
	if reused >= outBytes+colBytes/2 {
		t.Fatalf("inference-tape Conv2D allocates %.0f B per call; output is %.0f B, a column buffer %.0f B", reused, outBytes, colBytes)
	}
}

// TestEvalBatchNormSkipsXhat: an eval-mode BatchNorm that records
// nothing allocates its output and per-channel scalars, not the
// input-sized xhat the backward pass needs.
func TestEvalBatchNormSkipsXhat(t *testing.T) {
	x, _, _ := convFixture()
	bn := NewBatchNorm2d(8)
	bn.Forward(nil, x) // initialize running statistics
	bn.SetTraining(false)
	xBytes := float64(x.Size() * 8)
	got := bytesPerRun(t, 20, func() { bn.Forward(nil, x) })
	if got >= 1.5*xBytes {
		t.Fatalf("eval BatchNorm allocates %.0f B per call; output alone is %.0f B", got, xBytes)
	}
}

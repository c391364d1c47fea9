package nn

// Tape records the operations of a forward pass so Backward can
// replay their adjoints in reverse order. Create one tape per forward
// pass; inference can pass a nil tape to every op to skip recording,
// or an inference tape (NewInferenceTape) to also reuse scratch
// buffers across forward passes.
type Tape struct {
	steps []func()
	// inference marks a tape that records nothing and owns the
	// reusable scratch below; see NewInferenceTape.
	inference bool
	// cols is the im2col column buffer shared by every convolution of
	// an inference forward pass, grown to the largest one seen.
	cols []float64
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a tape for eval-mode forward passes: it
// records nothing (ops behave exactly as with a nil tape, bitwise) and
// owns one im2col column buffer that every convolution reuses, so a
// warmed-up tape makes no column allocations. A tape is owned by one
// forward pass at a time; keep one per concurrent caller.
func NewInferenceTape() *Tape { return &Tape{inference: true} }

// recording reports whether ops must build gradient state and record
// adjoints: false for nil and inference tapes.
func (t *Tape) recording() bool { return t != nil && !t.inference }

// colBuffer returns an im2col buffer of length n. Inference tapes hand
// out their reusable buffer (im2col overwrites every element, so stale
// contents never leak); any other tape gets a fresh slice.
func (t *Tape) colBuffer(n int) []float64 {
	if t == nil || !t.inference {
		return make([]float64, n)
	}
	if cap(t.cols) < n {
		t.cols = make([]float64, n)
	}
	return t.cols[:n]
}

// record registers a backward closure. Nil and inference tapes record
// nothing.
func (t *Tape) record(fn func()) {
	if t.recording() {
		t.steps = append(t.steps, fn)
	}
}

// Backward seeds d(loss)/d(loss)=1 on the scalar loss tensor and runs
// all recorded adjoints in reverse. Parameter gradients accumulate
// into their Grad buffers.
func (t *Tape) Backward(loss *Tensor) {
	if loss.Size() != 1 {
		panic("nn: Backward requires a scalar loss")
	}
	loss.ensureGrad()
	loss.Grad[0] = 1
	for i := len(t.steps) - 1; i >= 0; i-- {
		t.steps[i]()
	}
}

// Len reports the number of recorded operations (for tests).
func (t *Tape) Len() int {
	if t == nil {
		return 0
	}
	return len(t.steps)
}

// result builds an output tensor for an op: it needs a gradient buffer
// when any input tracks gradients and a tape is recording.
func result(tp *Tape, shape []int, inputs ...*Tensor) *Tensor {
	out := NewTensor(shape...)
	if !tp.recording() {
		return out
	}
	for _, in := range inputs {
		if in.needsGrad {
			out.needsGrad = true
			out.ensureGrad()
			break
		}
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"irfusion/internal/amg"
	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/features"
	"irfusion/internal/grid"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// The replay re-runs one request's path by calling each layer's
// public function in the order the program calls it, with the same
// options, inside benchmark-side spans. It is how the per-layer
// numbers are measured without instrumenting the program.

// path selects which program path a workload's requests take.
type path int

const (
	pathNumerical path = iota // serve, numerical mode: core.NumericalAnalyzer.AnalyzeCtx with the artifact cache
	pathFused                 // serve, fused mode: dataset.BuildCtx then Analyzer.PredictCtx
	pathCLI                   // irfusion analyze: core.NumericalAnalyzer.AnalyzeCtx without a cache
)

// checkpointEvery is the serve default solver checkpoint interval.
const checkpointEvery = 32

// counts are the work counters one replay reads off the layers.
type counts struct {
	nodes, nnz   int
	levels       int
	opComplexity float64
	applyCalls   int
	iterations   int
	spmvBytes    float64 // computed: CSR bytes streamed per product × products
	gemmCalls    int64
	forwardAlloc uint64 // bytes allocated by the CNN forward pass
}

// replayer holds what every replay of a run shares.
type replayer struct {
	p    *plan
	an   *core.Analyzer        // fused path
	base *cache.SystemArtifact // the artifact the served cache was primed with, if any
}

func newReplayer(p *plan) (*replayer, error) {
	r := &replayer{p: p}
	if p.path == pathFused {
		an, err := core.LoadAnalyzer(bytes.NewReader(p.model))
		if err != nil {
			return nil, err
		}
		r.an = an
	}
	if p.primed {
		// Solve the setup deck cold, exactly as the setup request did,
		// so every replay starts from the cache state the loop had.
		text, err := p.decks[p.setupDeck].spiceText()
		if err != nil {
			return nil, err
		}
		cc := cache.New(0, 0)
		_, c, err := r.numerical(nil, text, cc)
		if err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		cc.ScanTag(cache.SystemTag(c.nodes), 1, func(_ string, v any) bool {
			r.base, _ = v.(*cache.SystemArtifact)
			return false
		})
		if r.base == nil {
			return nil, errors.New("priming: the setup deck's artifact was not stored")
		}
	}
	return r, nil
}

// timedPrecond wraps a preconditioner so each Apply is a span.
type timedPrecond struct {
	t     *tracer
	name  string
	inner solver.Preconditioner
	calls int
}

func (p *timedPrecond) Apply(z, r []float64) {
	i := p.t.begin(p.name)
	p.inner.Apply(z, r)
	p.t.end(i)
	p.calls++
}

// precond returns pre wrapped for tracing, or pre itself untraced.
func precond(t *tracer, name string, pre solver.Preconditioner) (solver.Preconditioner, *timedPrecond) {
	if t == nil {
		return pre, nil
	}
	tp := &timedPrecond{t: t, name: name, inner: pre}
	return tp, tp
}

// spmvBytes is the storage one CSR product streams: values and column
// indices, row pointers, the input read and the output written.
func spmvBytes(sys *circuit.System) float64 {
	g := sys.G
	return float64(g.NNZ()*16 + (g.RowsN+1)*8 + 2*g.RowsN*8)
}

// run replays deck k and returns its map and counters.
func (r *replayer) run(t *tracer, k int) ([]float64, counts, error) {
	text, err := r.p.decks[k].spiceText()
	if err != nil {
		return nil, counts{}, err
	}
	t.startTrace()
	root := t.begin("replay")
	defer t.end(root)
	switch r.p.path {
	case pathFused:
		return r.fused(t, text)
	case pathCLI:
		return r.numerical(t, text, nil)
	}
	cc := cache.New(0, 0)
	if r.base != nil {
		cache.StoreSystem(context.Background(), cc, "prime", r.base)
	}
	return r.numerical(t, text, cc)
}

// parse is the request's deck admission: serve's prepare, or the
// CLI's -spice read.
func (r *replayer) parse(t *tracer, text string) (*pgen.Design, error) {
	var nl *spice.Netlist
	var err error
	t.do("spice.parse", func() { nl, err = spice.Parse(strings.NewReader(text)) })
	if err != nil {
		return nil, err
	}
	size := r.p.res
	if r.p.path != pathCLI {
		size = serve.InferDieSize(nl)
	}
	return &pgen.Design{Name: "request", W: size, H: size, VDD: serve.PadVoltage(nl), Netlist: nl}, nil
}

func assemble(t *tracer, d *pgen.Design) (*circuit.Network, *circuit.System, error) {
	var nw *circuit.Network
	var sys *circuit.System
	var err error
	t.do("circuit.from_netlist", func() { nw, err = circuit.FromNetlist(d.Netlist) })
	if err != nil {
		return nil, nil, err
	}
	t.do("circuit.assemble", func() { sys, err = nw.Assemble() })
	return nw, sys, err
}

// numerical replays core.NumericalAnalyzer.AnalyzeCtx as serve runs
// it (cc non-nil: fingerprint, exact lookup, warm-start search,
// checkpoints every 32 iterations, store) or as the CLI does (cc nil).
func (r *replayer) numerical(t *tracer, text string, cc *cache.Cache) ([]float64, counts, error) {
	var c counts
	d, err := r.parse(t, text)
	if err != nil {
		return nil, c, err
	}
	ctx := context.Background()
	var fp string
	if cc != nil {
		ctx = cache.WithCache(obs.WithRecorder(ctx, obs.NewRecorder()), cc)
		t.do("cache.fingerprint", func() { fp = cache.DesignFingerprint(d) }) // serve's job key
	}
	nw, sys, err := assemble(t, d)
	if err != nil {
		return nil, c, err
	}
	c.nodes, c.nnz = sys.N(), sys.G.NNZ()
	opts := solver.DefaultOptions()
	opts.Format = "auto"
	opts.Label = core.RungAMG
	x := make([]float64, sys.N())
	var nb *cache.SystemArtifact
	shape := cache.CheckpointShape("amg", "full", "auto", 0)
	if cc != nil {
		t.do("cache.fingerprint", func() { fp = cache.DesignFingerprint(d) }) // core's lookup key
		var art *cache.SystemArtifact
		t.do("cache.lookup", func() { art = cache.LookupSystem(ctx, cc, fp) })
		if art != nil {
			return nil, c, errors.New("replay: deck already cached; the served request was a miss")
		}
		opts.CheckpointEvery = checkpointEvery
		opts.CheckpointSink = &cache.CheckpointWriter{Ctx: ctx, Cache: cc, Fingerprint: fp, Shape: shape}
		t.do("cache.warm_search", func() { nb, _, err = cache.FindWarmStart(ctx, cc, sys.G, 0) })
		if err != nil {
			return nil, c, err
		}
	}
	var h *amg.Hierarchy
	if nb != nil {
		opts.Label = core.RungAMGWarm
		copy(x, nb.Golden)
		t.do("amg.clone", func() { h = nb.Hier.Clone() })
	} else {
		t.do("amg.setup", func() { h, err = amg.BuildCtx(ctx, sys.G, amg.DefaultOptions()) })
		if err != nil {
			return nil, c, err
		}
	}
	c.levels, c.opComplexity = h.NumLevels(), h.OperatorComplexity()
	pre, tp := precond(t, "amg.apply", h)
	var res solver.Result
	t.do("solver.pcg", func() { res, err = solver.PCGCtx(ctx, sys.G, x, sys.I, pre, opts) })
	if err != nil {
		return nil, c, err
	}
	if !res.Converged {
		return nil, c, fmt.Errorf("replay: solve stalled at %g", res.Residual)
	}
	c.iterations = res.Iterations
	c.spmvBytes = float64(res.Iterations+1) * spmvBytes(sys)
	if tp != nil {
		c.applyCalls = tp.calls
	}
	if cc != nil {
		t.do("cache.store", func() {
			cache.DropCheckpoint(cc, fp, shape)
			art := &cache.SystemArtifact{
				Fingerprint: fp, N: sys.N(), G: sys.G, I: sys.I,
				Golden: append([]float64(nil), x...), Precision: obs.PrecisionFull,
			}
			if nb == nil {
				art.Hier = h
			}
			cache.StoreSystem(ctx, cc, "numerical.solve", art)
		})
	}
	var m *grid.Map
	res2 := d.W
	t.do("features.golden_map", func() { m = features.GoldenMap(nw, sys.FullDrops(x), res2, res2) })
	return m.Data, c, nil
}

// fused replays serve's fused mode: dataset.BuildCtx with the
// analyzer's rough-solve hook (its primary rung: SSOR-PCG with the
// model's iteration budget), then Analyzer.PredictCtx.
func (r *replayer) fused(t *tracer, text string) ([]float64, counts, error) {
	var c counts
	d, err := r.parse(t, text)
	if err != nil {
		return nil, c, err
	}
	cc := cache.New(0, 0)
	ctx := cache.WithCache(obs.WithRecorder(context.Background(), obs.NewRecorder()), cc)
	var fp string
	t.do("cache.fingerprint", func() { fp = cache.DesignFingerprint(d) }) // serve's job key
	opts := r.an.Config.DatasetOptions()
	t.do("cache.fingerprint", func() { fp = cache.DesignFingerprint(d) }) // dataset's lookup key
	nw, sys, err := assemble(t, d)
	if err != nil {
		return nil, c, err
	}
	c.nodes, c.nnz = sys.N(), sys.G.NNZ()

	gs := t.begin("dataset.golden_solve")
	gx := make([]float64, sys.N())
	var art, nb *cache.SystemArtifact
	t.do("cache.lookup", func() { art = cache.LookupSystem(ctx, cc, fp) })
	t.do("cache.warm_search", func() { nb, _, err = cache.FindWarmStart(ctx, cc, sys.G, opts.WarmDelta) })
	if err != nil || art != nil || nb != nil {
		t.end(gs)
		return nil, c, fmt.Errorf("replay: fused golden solve found a cached artifact or failed: %v", err)
	}
	var h *amg.Hierarchy
	t.do("amg.setup", func() { h, err = amg.BuildCtx(ctx, sys.G, amg.DefaultOptions()) })
	if err != nil {
		t.end(gs)
		return nil, c, err
	}
	c.levels, c.opComplexity = h.NumLevels(), h.OperatorComplexity()
	gopts := solver.Options{Tol: opts.GoldenTol, MaxIter: opts.GoldenMaxIter, Flexible: true, Record: true, Label: "golden"}
	pre, tp := precond(t, "amg.apply", h)
	var res solver.Result
	t.do("solver.pcg", func() { res, err = solver.PCGCtx(ctx, sys.G, gx, sys.I, pre, gopts) })
	if err != nil || !res.Converged {
		t.end(gs)
		return nil, c, fmt.Errorf("replay: golden solve: %v (residual %g)", err, res.Residual)
	}
	c.iterations = res.Iterations
	c.spmvBytes = float64(res.Iterations+1) * spmvBytes(sys)
	if tp != nil {
		c.applyCalls = tp.calls
	}
	t.do("cache.store", func() {
		cache.StoreSystem(ctx, cc, "dataset.golden_solve", &cache.SystemArtifact{
			Fingerprint: fp, N: sys.N(), G: sys.G, I: sys.I, Golden: append([]float64(nil), gx...), Hier: h,
		})
	})
	var golden *grid.Map
	t.do("features.golden_map", func() { golden = features.GoldenMap(nw, sys.FullDrops(gx), opts.H, opts.W) })
	t.end(gs)

	s := &dataset.Sample{Name: d.Name, Class: d.Class, Golden: golden, Features: &features.Set{}}
	t.do("features.structure", func() { s.Features.Append(features.StructureFeatures(nw, opts.H, opts.W)) })
	rx := make([]float64, sys.N())
	t.do("dataset.rough_solve", func() {
		pre, _ := precond(t, "solver.precond", solver.NewSSOR(sys.G, 2))
		ropts := solver.RoughOptions(r.an.Config.RoughIters)
		ropts.Label = core.RungRough
		var rres solver.Result
		t.do("solver.pcg", func() { rres, err = solver.PCGCtx(ctx, sys.G, rx, sys.I, pre, ropts) })
		c.iterations += rres.Iterations
		c.spmvBytes += float64(rres.Iterations+1) * spmvBytes(sys)
	})
	if err != nil {
		return nil, c, err
	}
	t.do("features.numerical", func() {
		full := sys.FullDrops(rx)
		s.Features.Append(features.NumericalFeatures(nw, full, opts.H, opts.W))
		s.RoughBottom = features.GoldenMap(nw, full, opts.H, opts.W)
	})

	var x *nn.Tensor
	t.do("nn.prep", func() {
		x, _ = dataset.ToTensors([]*dataset.Sample{s})
		r.an.Norm.Apply(x)
	})
	r.an.Model.SetTraining(false)
	var out *nn.Tensor
	var ms0, ms1 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&ms0)
	}
	g0 := obs.CounterValue("nn.gemm_calls")
	t.do("nn.forward", func() { out = r.an.Model.Forward(nil, x) })
	c.gemmCalls = obs.CounterValue("nn.gemm_calls") - g0
	if t != nil {
		runtime.ReadMemStats(&ms1)
		c.forwardAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	}
	var pred []float64
	t.do("models.output", func() {
		m := grid.FromData(s.Golden.H, s.Golden.W, out.Data)
		inv := 1 / r.an.TargetScale
		residual := r.an.Config.ResidualMode && r.an.Config.UseNumerical && s.RoughBottom != nil
		for i, v := range m.Data {
			v *= inv
			if residual {
				v += s.RoughBottom.Data[i]
			}
			if v < 0 {
				v = 0
			}
			m.Data[i] = v
		}
		pred = m.Data
	})
	return pred, c, nil
}

// sameMap reports whether a replayed map equals the served one
// exactly: the program is deterministic, so any difference means the
// replay did not take the served path.
func sameMap(served, replayed []float64) bool {
	if len(served) != len(replayed) {
		return false
	}
	for i := range served {
		if served[i] != replayed[i] {
			return false
		}
	}
	return true
}

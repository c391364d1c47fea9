package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"irfusion/internal/dataset"
	"irfusion/internal/models"
	"irfusion/internal/parallel"
	"irfusion/internal/pgen"
	"irfusion/internal/race"
)

// untrainedAnalyzer wraps a freshly initialized model of the given
// architecture, sized for samples built with cfg, in eval mode — the
// state LoadAnalyzer and Train leave a model in. Inference cost and
// reentrancy do not depend on trained weights.
func untrainedAnalyzer(t *testing.T, cfg Config, samples []*dataset.Sample) *Analyzer {
	t.Helper()
	model, err := cfg.buildModel(samples[0].Features.Channels())
	if err != nil {
		t.Fatal(err)
	}
	model.SetTraining(false)
	return &Analyzer{Config: cfg, Model: model, Norm: dataset.FitNormalizer(samples), TargetScale: 10}
}

// featureSamples builds unlabeled samples (feature stage only) for n
// generated designs at the config's resolution.
func featureSamples(t *testing.T, cfg Config, n int) []*dataset.Sample {
	t.Helper()
	var out []*dataset.Sample
	for i := 0; i < n; i++ {
		class := pgen.Fake
		if i%2 == 1 {
			class = pgen.Real
		}
		d, err := pgen.Generate(pgen.DefaultConfig(fmt.Sprintf("infer-%d", i), class, cfg.Resolution, cfg.Resolution, int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := dataset.BuildFeaturesCtx(context.Background(), d, cfg.DatasetOptions())
		if err != nil {
			t.Fatal(err)
		}
		if s.Golden != nil {
			t.Fatal("feature stage produced a golden label")
		}
		out = append(out, s)
	}
	return out
}

// seedPredictBytes64 is what one PredictCtx call allocated at 64 die
// with the default IR-Fusion model before inference tapes existed: a
// fresh im2col buffer per convolution and a per-layer batch-norm xhat.
const seedPredictBytes64 = 38.6e6

// TestPredictAllocationBudget: with the analyzer's recycled inference
// tape, a 64-die prediction allocates at most 40% of the seed's bytes.
func TestPredictAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation figures are meaningless under the race detector")
	}
	prev := parallel.SetDefault(parallel.New(1))
	defer parallel.SetDefault(prev)
	cfg := Default(64)
	samples := featureSamples(t, cfg, 1)
	a := untrainedAnalyzer(t, cfg, samples)
	a.Predict(samples[0]) // warm the tape's column buffer
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		a.Predict(samples[0])
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("PredictCtx at 64 die: %.1f MB per call (seed %.1f MB)", perCall/1e6, seedPredictBytes64/1e6)
	if limit := 0.40 * seedPredictBytes64; perCall > limit {
		t.Fatalf("PredictCtx allocates %.1f MB per call, budget %.1f MB", perCall/1e6, limit/1e6)
	}
}

// TestSharedAnalyzerConcurrentPredict: for every registered model, one
// shared analyzer predicting from several goroutines at once returns
// maps bitwise equal to serial predictions. Under -race this proves an
// eval-mode forward pass writes no shared model state.
func TestSharedAnalyzerConcurrentPredict(t *testing.T) {
	base := quickCfg()
	samples := featureSamples(t, base, 3)
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.ModelName = name
			a := untrainedAnalyzer(t, cfg, samples)
			want := make([][]float64, len(samples))
			for i, s := range samples {
				want[i] = a.Predict(s).Data
			}
			const rounds = 2
			var wg sync.WaitGroup
			errs := make(chan error, rounds*len(samples))
			for r := 0; r < rounds; r++ {
				for i, s := range samples {
					wg.Add(1)
					go func(i int, s *dataset.Sample) {
						defer wg.Done()
						got := a.Predict(s).Data
						for k := range got {
							if got[k] != want[i][k] { //irfusion:exact concurrent inference must be bitwise equal to serial
								errs <- fmt.Errorf("sample %d pixel %d: concurrent %v, serial %v", i, k, got[k], want[i][k])
								return
							}
						}
					}(i, s)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

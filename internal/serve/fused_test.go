package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/pgen"
)

// trainedModel trains a tiny fused model (2 designs, 1 epoch) and
// returns its Analyzer.Save bytes.
func trainedModel(t *testing.T) []byte {
	t.Helper()
	cfg := core.Default(32)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 1
	train, err := dataset.GenerateSet(2, 0, 32, 50, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Analyzer.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeFusedConcurrentSharedModel sends concurrent fused requests
// to a 2-worker server whose jobs share one analyzer. Every served map
// must be bitwise equal to a serial analysis with a separately loaded
// copy of the model, and every manifest must show the inference path:
// one rough solve and no golden solve.
func TestServeFusedConcurrentSharedModel(t *testing.T) {
	model := trainedModel(t)
	shared, err := core.LoadAnalyzer(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.LoadAnalyzer(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := make([][]float64, n)
	for i := range want {
		// The server generates a pgen body's design from the class
		// defaults under the name "request"; so does the reference.
		d, err := pgen.Generate(pgen.DefaultConfig("request", pgen.Fake, 32, 32, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ref.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.Data
	}

	_, ts := newTestServer(t, Config{Workers: 2, Analyzer: shared})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, b := post(t, ts, "/v1/analyze", pgenBody(int64(i+1), 32, `"mode": "fused", "include_map": true`))
			if code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, code, b)
				return
			}
			v := decodeJob(t, b)
			if v.Status != StatusDone || v.Result == nil {
				errs <- fmt.Errorf("request %d: status %q: %s", i, v.Status, v.Error)
				return
			}
			got := v.Result.Map
			if len(got) != len(want[i]) {
				errs <- fmt.Errorf("request %d: map has %d pixels, want %d", i, len(got), len(want[i]))
				return
			}
			for k := range got {
				if got[k] != want[i][k] { //irfusion:exact served maps must be bitwise equal to serial inference
					errs <- fmt.Errorf("request %d pixel %d: served %v, serial %v", i, k, got[k], want[i][k])
					return
				}
			}
			m := v.Result.Manifest
			if m == nil {
				errs <- fmt.Errorf("request %d: no manifest", i)
				return
			}
			if err := m.Validate(); err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if len(m.Solves) != 1 || m.Solves[0].Label != core.RungRough {
				errs <- fmt.Errorf("request %d: want exactly one rough solve, got %+v", i, m.Solves)
				return
			}
			for _, st := range m.Stages {
				if st.Name == "dataset.golden_solve" {
					errs <- fmt.Errorf("request %d: manifest has a golden solve stage", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// smallDeck is a 32-die request deck: big enough for a real grid,
// small enough to solve in milliseconds.
func smallDeck(t *testing.T, seed int64, mode string) *deck {
	t.Helper()
	d, err := genDeck("t", pgen.Real, 32, seed, mode)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOracleCatchesCorruptedMap(t *testing.T) {
	dk := smallDeck(t, 3, serve.ModeNumerical)
	text, err := dk.spiceText()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := directOracle(text, 32)
	if err != nil {
		t.Fatal(err)
	}
	svc := &cliService{size: 32, texts: func(int) string { return text }}
	s := svc.call(0, 0)
	if s.err != "" {
		t.Fatal(s.err)
	}
	p := &plan{}
	judge(p, &s, oracle)
	if !s.correct {
		t.Fatalf("the program's converged map fails the oracle: %s", s.err)
	}

	for name, corrupt := range map[string]func(m []float64) []float64{
		"one pixel off by twice the tolerance": func(m []float64) []float64 {
			m[len(m)/3] += 2 * mapTol * oracle.Max()
			return m
		},
		"a NaN pixel":   func(m []float64) []float64 { m[0] = math.NaN(); return m },
		"a map too few": func(m []float64) []float64 { return m[:len(m)-1] },
	} {
		bad := sample{served: corrupt(append([]float64(nil), s.served...))}
		judge(p, &bad, oracle)
		if bad.correct || bad.err == "" {
			t.Errorf("%s: the oracle check passed it", name)
		}
	}
}

func TestDissectIsAPermutation(t *testing.T) {
	text, err := smallDeck(t, 5, serve.ModeNumerical).spiceText()
	if err != nil {
		t.Fatal(err)
	}
	_, sys, err := systemOf(text)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	xs, ys, placed := make([]int, n), make([]int, n), make([]bool, n)
	for i := range xs {
		xs[i], ys[i], placed[i] = i%7, i/7, i%11 != 0
	}
	seen := make([]bool, n)
	for _, v := range dissect(sys.G, xs, ys, placed) {
		if seen[v] {
			t.Fatalf("node %d ordered twice", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d never ordered", v)
		}
	}
}

func TestRefusedAndFailedRequestsCountAsFailed(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"job queue full or server draining"}`, http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	refused := (&httpService{ts: refusing, client: refusing.Client(), bodies: func(int) []byte { return []byte("{}") }}).call(0, 0)

	// The real server refuses a body with neither a deck nor a generator.
	real := newHTTPService(serveConfig(nil), func(int) []byte { return []byte("{}") })
	defer real.close()
	invalid := real.call(0, 0)

	ok := sample{start: time.Unix(0, 0), end: time.Unix(0, int64(200*time.Millisecond)), correct: true}
	samples := []sample{ok, refused, invalid}
	p := &plan{decks: []*deck{{name: "t"}}}
	for _, i := range []int{1, 2} {
		judge(p, &samples[i], nil)
		if samples[i].correct || samples[i].err == "" {
			t.Fatalf("sample %d (status %d) judged correct", i, samples[i].status)
		}
	}
	if refused.status != http.StatusServiceUnavailable || invalid.status != http.StatusBadRequest {
		t.Fatalf("statuses %d and %d, want 503 and 400", refused.status, invalid.status)
	}
	lat := latencies(samples)
	if lat[0] != 0.2 || !math.IsInf(lat[1], 1) || !math.IsInf(lat[2], 1) {
		t.Fatalf("latencies %v: a failure must miss every limit", lat)
	}
	m, _ := endToEnd(p, loopResult{samples: samples, elapsed: time.Second}, []float64{1}, 1)
	if got := m["correct_frac"].Value; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("correct_frac %g, want 1/3", got)
	}
	if got := m["throughput_rps"].Value; got != 1 {
		t.Errorf("throughput %g, want only the correct answer counted", got)
	}
	if got := m["latency_p50_s"].Value; got != math.MaxFloat64 {
		t.Errorf("p50 %g: with two of three failed the median misses every limit", got)
	}
}

// replayMatches serves deck 1 of p, replays it traced and untraced,
// and checks the replay reproduces the served map and detects a
// changed one.
func replayMatches(t *testing.T, p *plan, svc service) {
	t.Helper()
	if p.primed {
		if s := svc.call(0, p.setupDeck); s.err != "" {
			t.Fatal(s.err)
		}
	}
	s := svc.call(0, 1)
	if s.err != "" {
		t.Fatal(s.err)
	}
	r, err := newReplayer(p)
	if err != nil {
		t.Fatal(err)
	}
	var tr tracer
	got, c, err := r.run(&tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(s.served, got) {
		t.Fatal("traced replay differs from the served map")
	}
	plain, _, err := r.run(nil, 1)
	if err != nil || !sameMap(s.served, plain) {
		t.Fatalf("untraced replay differs from the served map (err %v)", err)
	}
	if c.nodes == 0 || c.iterations == 0 || len(tr.spans) < 5 || tr.spans[0].Name != "replay" {
		t.Fatalf("replay recorded counts %+v and %d spans", c, len(tr.spans))
	}
	changed := append([]float64(nil), s.served...)
	changed[len(changed)/2] = math.Nextafter(changed[len(changed)/2], math.Inf(1))
	if sameMap(changed, got) {
		t.Fatal("a map one ulp away counted as the served one")
	}
}

func TestReplayMatchesServedNumerical(t *testing.T) {
	decks := []*deck{smallDeck(t, 7, serve.ModeNumerical), smallDeck(t, 8, serve.ModeNumerical)}
	p := &plan{decks: decks, res: 32, path: pathNumerical}
	svc := newHTTPService(serveConfig(nil), bodyOf(decks))
	defer svc.close()
	replayMatches(t, p, svc)
}

func TestReplayMatchesServedECOVariant(t *testing.T) {
	base, err := pgen.Generate(pgen.DefaultConfig("b", pgen.Real, 48, 48, 9))
	if err != nil {
		t.Fatal(err)
	}
	var decks []*deck
	for _, d := range []*pgen.Design{base, pgen.Perturb(base, 0.005, 1)} {
		body, err := requestBody(serve.AnalyzeRequest{Spice: designText(d), IncludeMap: true})
		if err != nil {
			t.Fatal(err)
		}
		decks = append(decks, &deck{name: d.Name, body: body})
	}
	p := &plan{decks: decks, res: 48, path: pathNumerical, primed: true}
	svc := newHTTPService(serveConfig(nil), bodyOf(decks))
	defer svc.close()
	replayMatches(t, p, svc)
}

func TestReplayMatchesCLI(t *testing.T) {
	var decks []*deck
	for _, seed := range []int64{11, 12} {
		text, err := smallDeck(t, seed, serve.ModeNumerical).spiceText()
		if err != nil {
			t.Fatal(err)
		}
		decks = append(decks, &deck{text: text})
	}
	p := &plan{decks: decks, res: 32, path: pathCLI}
	replayMatches(t, p, &cliService{size: 32, texts: func(k int) string { return decks[k].text }})
}

func TestReplayMatchesServedFused(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := core.Default(32)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 1
	train, err := dataset.GenerateSet(1, 1, 32, 3, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := res.Analyzer.Save(&model); err != nil {
		t.Fatal(err)
	}
	an, err := core.LoadAnalyzer(bytes.NewReader(model.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decks := []*deck{smallDeck(t, 13, serve.ModeFused), smallDeck(t, 14, serve.ModeFused)}
	p := &plan{decks: decks, res: 32, path: pathFused, fused: true, model: model.Bytes()}
	svc := newHTTPService(serveConfig(an), bodyOf(decks))
	defer svc.close()
	replayMatches(t, p, svc)
}

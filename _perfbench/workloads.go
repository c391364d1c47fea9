package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/grid"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	why  string
	// build generates every input of a run from the seed and returns
	// the run plan. It runs before any clock starts.
	build func(o options) (*plan, error)
}

var workloads = []workload{
	{
		name:  "serve-numerical-256",
		why:   "distinct 256-die decks from 2 clients: parse, assembly, AMG setup and PCG on the cold path; the cache only misses, stores and evicts",
		build: buildNumerical,
	},
	{
		name:  "serve-eco-256",
		why:   "1% ECO edits of one cached 256-die base and exact re-requests from 2 clients: warm-start search, hierarchy clone, short PCG and response-cache reads",
		build: buildECO,
	},
	{
		name:  "serve-fused-64",
		why:   "fused requests on distinct 64-die decks: the CNN forward dominates and shared-model inference is serialised; scores ML accuracy",
		build: buildFused,
	},
	{
		name:  "analyze-512",
		why:   "the CLI path on 512-die decks (95k nodes) with one caller: the only workload with idle cores for intra-solve parallelism",
		build: buildAnalyze512,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deck is one input design as the program receives it.
type deck struct {
	name string
	text string // SPICE text (CLI path); empty when body carries it
	body []byte // POST /v1/analyze body (serve path)
}

// spiceText returns the deck's SPICE text, decoding the request body
// when that is all the deck keeps.
func (d *deck) spiceText() (string, error) {
	if d.text != "" || d.body == nil {
		return d.text, nil
	}
	var req serve.AnalyzeRequest
	if err := json.Unmarshal(d.body, &req); err != nil {
		return "", err
	}
	return req.Spice, nil
}

// plan is everything a run needs, generated before any clock starts.
type plan struct {
	decks     []*deck
	setupDeck int // the deck every setup repetition answers first
	clients   int
	setupReps int
	fused     bool // maps are ML predictions: scored by MAE, not checked per pixel
	res       int  // resolution of returned maps
	path      path // the program path the requests take, for the replay
	primed    bool // the setup deck's artifact stays cached for the loop (ECO base)
	model     []byte
	// newService constructs the service; it runs inside the setup clock.
	newService func() (service, error)
	// streams starts round r and returns, for client c, its request
	// sequence: given the request index and the client's previous
	// sample (nil at first), the deck to send, or -1 when the client
	// has no inputs left.
	streams func(r int) func(c int) func(i int, prev *sample) int
	// memReqs is how many requests after the setup deck the memory
	// phase sends.
	memReqs int
	// oracle returns the oracle map of deck k. It runs untimed.
	oracle func(k int) (*grid.Map, error)
}

// clients is the number of concurrent callers: 2, but never more than
// the CPUs the process may use.
func clients() int { return min(2, runtime.GOMAXPROCS(0)) }

// generate fills decks[i] = gen(i) on up to two goroutines.
func generate(n int, gen func(i int) (*deck, error)) ([]*deck, error) {
	out := make([]*deck, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := min(2, runtime.GOMAXPROCS(0))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = gen(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func designText(d *pgen.Design) string {
	var buf bytes.Buffer
	_ = d.Netlist.Write(&buf) // writes to a bytes.Buffer cannot fail
	return buf.String()
}

func requestBody(req serve.AnalyzeRequest) ([]byte, error) { return json.Marshal(req) }

// genDeck generates a pgen design and packs it as a serve request.
func genDeck(name string, class pgen.Class, size int, seed int64, mode string) (*deck, error) {
	d, err := pgen.Generate(pgen.DefaultConfig(name, class, size, size, seed))
	if err != nil {
		return nil, err
	}
	body, err := requestBody(serve.AnalyzeRequest{Spice: designText(d), Mode: mode, IncludeMap: true})
	if err != nil {
		return nil, err
	}
	return &deck{name: name, body: body}, nil
}

func classOf(i int) pgen.Class {
	if i%2 == 0 {
		return pgen.Real
	}
	return pgen.Fake
}

// poolSize bounds the distinct inputs generated for a run: the
// seconds of one round times a rate well above the seed's measured
// throughput. A client that exhausts the pool stops early, which the
// report says; within a round it never repeats a deck.
func poolSize(o options, ratePerSecond float64) int {
	return int(math.Ceil(roundSeconds(o)*ratePerSecond)) + 1
}

// sharedPool hands out decks 1..n-1 (deck 0 is the setup deck) to
// all clients in order, starting over every round.
func sharedPool(n int) func(int) func(c int) func(int, *sample) int {
	return func(int) func(c int) func(int, *sample) int {
		var mu sync.Mutex
		next := 1
		return func(int) func(int, *sample) int {
			return func(int, *sample) int {
				mu.Lock()
				defer mu.Unlock()
				if next >= n {
					return -1
				}
				next++
				return next - 1
			}
		}
	}
}

func bodyOf(decks []*deck) func(int) []byte { return func(k int) []byte { return decks[k].body } }

func directOracleOf(decks []*deck, res int) func(int) (*grid.Map, error) {
	return func(k int) (*grid.Map, error) {
		text, err := decks[k].spiceText()
		if err != nil {
			return nil, err
		}
		return directOracle(text, res)
	}
}

// numericalRate is above the 4.9–6.4 requests/s the seed code serves
// on a 2-vCPU Xeon host.
const numericalRate = 8

func buildNumerical(o options) (*plan, error) {
	n := poolSize(o, numericalRate)
	decks, err := generate(n, func(i int) (*deck, error) {
		// Real-class decks only: fake decks of one size share their
		// grid and differ only in pads and loads, so they warm-start off
		// each other and the path would not be cold.
		return genDeck(fmt.Sprintf("n%d_%d", o.seed, i), pgen.Real, 256, o.seed*100003+int64(i), serve.ModeNumerical)
	})
	if err != nil {
		return nil, err
	}
	return &plan{
		decks: decks, setupDeck: 0, clients: clients(), setupReps: 5, res: 256, path: pathNumerical,
		newService: func() (service, error) { return newHTTPService(serveConfig(nil), bodyOf(decks)), nil },
		streams:    sharedPool(n), memReqs: 4,
		oracle: directOracleOf(decks, 256),
	}, nil
}

// ecoRate bounds the new variants per second per client; the seed
// code serves about 2 per client on a 2-vCPU Xeon host.
const ecoRate = 4

// ecoBaseSeed fixes the ECO base design. A base drawn per run seed
// would make each run's cost follow one design's size and iteration
// count; the run seed instead picks the edits.
const ecoBaseSeed = 2561

// buildECO makes the base design and, per round and client, a stream
// of 1% resistor edits of it (pgen.Perturb). Deck 0 is the base; it is
// the setup deck, so every service the timed loop uses is primed by
// it. Each round is a new ECO session with edits of its own: whether
// an edit warm-starts depends on the edit, so a run averages over as
// many of them as it can.
func buildECO(o options) (*plan, error) {
	base, err := pgen.Generate(pgen.DefaultConfig("eco", pgen.Real, 256, 256, ecoBaseSeed))
	if err != nil {
		return nil, err
	}
	nc := clients()
	perClient := int(math.Ceil(roundSeconds(o)*ecoRate)) + 1
	variants, err := generate(numRounds(o)*nc*perClient, func(i int) (*deck, error) {
		v := pgen.Perturb(base, 0.01, o.seed*1000003+int64(i))
		body, err := requestBody(serve.AnalyzeRequest{Spice: designText(v), IncludeMap: true})
		return &deck{name: v.Name, body: body}, err
	})
	if err != nil {
		return nil, err
	}
	baseBody, err := requestBody(serve.AnalyzeRequest{Spice: designText(base), IncludeMap: true})
	if err != nil {
		return nil, err
	}
	decks := append([]*deck{{name: base.Name, body: baseBody}}, variants...)
	return &plan{
		decks: decks, setupDeck: 0, clients: nc, setupReps: 5, res: 256, path: pathNumerical, primed: true,
		newService: func() (service, error) { return newHTTPService(serveConfig(nil), bodyOf(decks)), nil },
		streams: func(r int) func(c int) func(int, *sample) int {
			return func(c int) func(int, *sample) int {
				first := 1 + (r*nc+c)*perClient
				// Two of every three requests are a new variant of this
				// client's own stream; the third re-requests the variant
				// the client last received, an exact response-cache hit.
				j := 0
				return func(i int, prev *sample) int {
					if i%3 == 2 && prev != nil && prev.err == "" {
						return prev.deck
					}
					if j >= perClient {
						return -1
					}
					j++
					return first + j - 1
				}
			}
		},
		memReqs: 6,
		oracle:  directOracleOf(decks, 256),
	}, nil
}

// fusedRate is above the 17–22 requests/s the seed code serves on a
// 2-vCPU Xeon host.
const fusedRate = 32

func buildFused(o options) (*plan, error) {
	model, err := trainedModel(o)
	if err != nil {
		return nil, err
	}
	n := poolSize(o, fusedRate)
	decks, err := generate(n, func(i int) (*deck, error) {
		return genDeck(fmt.Sprintf("f%d_%d", o.seed, i), classOf(i), 64, o.seed*100003+int64(i), serve.ModeFused)
	})
	if err != nil {
		return nil, err
	}
	return &plan{
		decks: decks, setupDeck: 0, clients: clients(), setupReps: 5, res: 64, fused: true, path: pathFused, model: model,
		newService: func() (service, error) {
			an, err := core.LoadAnalyzer(bytes.NewReader(model))
			if err != nil {
				return nil, err
			}
			return newHTTPService(serveConfig(an), bodyOf(decks)), nil
		},
		streams: sharedPool(n), memReqs: 16,
		oracle: directOracleOf(decks, 64),
	}, nil
}

// modelSeed fixes the fused model's training, so that every run and
// every commit scores the same predictor and fused_mae_uV compares
// inference, not the luck of a training run. The run seed drives the
// decks the model is scored on.
const modelSeed = 7

// trainedModel trains the fused model deterministically (3 designs,
// 1 epoch) and returns its Analyzer.Save bytes. The bytes are kept
// under .bench_build between runs of one checkout.
func trainedModel(o options) ([]byte, error) {
	path := filepath.Join(o.root, ".bench_build", "model", fmt.Sprintf("irfusion-64-s%d-e1.gob", modelSeed))
	if b, err := os.ReadFile(path); err == nil {
		return b, nil
	}
	cfg := core.Default(64)
	cfg.Epochs = 1
	cfg.Seed = modelSeed
	train, err := dataset.GenerateSet(2, 1, 64, modelSeed, cfg.DatasetOptions())
	if err != nil {
		return nil, err
	}
	res, err := core.Train(cfg, train)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.Analyzer.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), os.Rename(path+".tmp", path)
}

// analyzeSeeds fix the 512-die decks the CLI workload cycles over. A
// run sends only a handful of 512-die requests, so decks drawn per run
// seed would make each run's figures follow its two designs; the run
// seed instead picks where in the cycle a run starts.
var analyzeSeeds = []int64{5121, 5122}

func buildAnalyze512(o options) (*plan, error) {
	n := len(analyzeSeeds)
	decks, err := generate(n, func(i int) (*deck, error) {
		name := fmt.Sprintf("a512_%d", i)
		d, err := pgen.Generate(pgen.DefaultConfig(name, pgen.Real, 512, 512, analyzeSeeds[i]))
		if err != nil {
			return nil, err
		}
		return &deck{name: name, text: designText(d)}, nil
	})
	if err != nil {
		return nil, err
	}
	start := int(uint64(o.seed) % uint64(n))
	return &plan{
		decks: decks, setupDeck: start, clients: 1, setupReps: 3, res: 512, path: pathCLI,
		newService: func() (service, error) {
			return &cliService{size: 512, texts: func(k int) string { return decks[k].text }}, nil
		},
		streams: func(int) func(int) func(int, *sample) int {
			return func(int) func(int, *sample) int {
				return func(i int, _ *sample) int { return (start + 1 + i) % n }
			}
		},
		memReqs: 2,
		oracle:  directOracleOf(decks, 512),
	}, nil
}

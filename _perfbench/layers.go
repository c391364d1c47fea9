package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"irfusion/internal/obs"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric, in report order. A traced
// run prints all of them on every workload; a layer a workload does
// not use reads 0.
var layerMetrics = []layerMetric{
	{"serve.queue_wait_s", "s", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.edge_s", "s", "lower"},
	{"serve.resp_mb", "MB", "lower"},
	{"spice.parse_s", "s", "lower"},
	{"spice.deck_mb", "MB", "lower"},
	{"circuit.assemble_s", "s", "lower"},
	{"circuit.nodes", "count", "lower"},
	{"circuit.nnz", "count", "lower"},
	{"amg.setup_s", "s", "lower"},
	{"amg.clone_s", "s", "lower"},
	{"amg.levels", "count", "lower"},
	{"amg.op_complexity", "ratio", "lower"},
	{"amg.apply_s", "s", "lower"},
	{"amg.apply_calls", "count", "lower"},
	{"solver.pcg_s", "s", "lower"},
	{"solver.pcg_self_s", "s", "lower"},
	{"solver.iterations", "count", "lower"},
	{"solver.spmv_mb_computed", "MB", "lower"},
	{"cache.fingerprint_s", "s", "lower"},
	{"cache.lookup_s", "s", "lower"},
	{"cache.warm_search_s", "s", "lower"},
	{"cache.store_s", "s", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.stores", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"cache.hit_ratio", "fraction", "higher"},
	{"cache.warm_ratio", "fraction", "higher"},
	{"dataset.golden_solve_s", "s", "lower"},
	{"dataset.rough_solve_s", "s", "lower"},
	{"features.structure_s", "s", "lower"},
	{"features.numerical_s", "s", "lower"},
	{"features.golden_map_s", "s", "lower"},
	{"nn.prep_s", "s", "lower"},
	{"nn.forward_s", "s", "lower"},
	{"nn.forward_alloc_mb", "MB", "lower"},
	{"nn.gemm_calls", "count", "lower"},
	{"parallel.dispatches", "count", "higher"},
	{"parallel.par_frac", "fraction", "higher"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_s", "s", "lower"},
	{"trace.replays", "count", "higher"},
	{"trace.overhead_s", "s", "lower"},
}

// spanMetric maps a span name to the per-layer time metric its
// duration adds to.
var spanMetric = map[string]string{
	"spice.parse":          "spice.parse_s",
	"circuit.from_netlist": "circuit.assemble_s",
	"circuit.assemble":     "circuit.assemble_s",
	"amg.setup":            "amg.setup_s",
	"amg.clone":            "amg.clone_s",
	"amg.apply":            "amg.apply_s",
	"solver.pcg":           "solver.pcg_s",
	"cache.fingerprint":    "cache.fingerprint_s",
	"cache.lookup":         "cache.lookup_s",
	"cache.warm_search":    "cache.warm_search_s",
	"cache.store":          "cache.store_s",
	"dataset.golden_solve": "dataset.golden_solve_s",
	"dataset.rough_solve":  "dataset.rough_solve_s",
	"features.structure":   "features.structure_s",
	"features.numerical":   "features.numerical_s",
	"features.golden_map":  "features.golden_map_s",
	"nn.prep":              "nn.prep_s",
	"nn.forward":           "nn.forward_s",
}

// replaysPerPath is how many distinct decks of a run are replayed.
var replaysPerPath = map[path]int{pathNumerical: 4, pathFused: 6, pathCLI: 2}

// traced measures the per-layer metrics of a run: the serve, cache,
// parallel and runtime numbers of its closed loop, and the layer
// times and counters of a replay of a sample of its decks.
func traced(p *plan, lr loopResult, o options) (map[string]metric, []string, error) {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }

	served := map[int][]float64{}
	var order []int
	hits, warm, answered := 0, 0, 0
	for _, s := range lr.samples {
		if !s.correct {
			continue
		}
		answered++
		if _, seen := served[s.deck]; !seen {
			served[s.deck] = s.served
			order = append(order, s.deck)
		}
		if v := s.view; v != nil {
			add("serve.queue_wait_s", v.StartedAt.Sub(v.SubmittedAt).Seconds())
			add("serve.run_s", v.FinishedAt.Sub(*v.StartedAt).Seconds())
			add("serve.edge_s", (s.latency() - v.FinishedAt.Sub(v.SubmittedAt)).Seconds())
			add("serve.resp_mb", float64(s.respBytes)/1e6)
			h, w := cacheOutcome(v.Result.Manifest)
			if h {
				hits++
			} else if w {
				warm++
			}
		}
	}
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{0, lm.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	for name, v := range vals {
		set(name, median(v))
	}
	if answered > 0 && p.path != pathCLI {
		set("cache.hit_ratio", float64(hits)/float64(answered))
		if answered > hits {
			set("cache.warm_ratio", float64(warm)/float64(answered-hits))
		}
	}
	set("cache.hits", float64(lr.cache.Hits))
	set("cache.misses", float64(lr.cache.Misses))
	set("cache.stores", float64(lr.cache.Stores))
	set("cache.evictions", float64(lr.cache.Evictions))
	par := lr.counters["parallel.for.parallel"] + lr.counters["parallel.do.parallel"]
	ser := lr.counters["parallel.for.serial"] + lr.counters["parallel.do.serial"]
	set("parallel.dispatches", float64(par))
	if par+ser > 0 {
		set("parallel.par_frac", float64(par)/float64(par+ser))
	}
	set("gc.cycles", lr.gcCycles)
	set("gc.pause_s", lr.gcPause.Seconds())

	// Replay a sample of the distinct decks, each once untraced and
	// once traced, alternating which goes first.
	r, err := newReplayer(p)
	if err != nil {
		return nil, nil, err
	}
	if len(order) > replaysPerPath[p.path] {
		order = order[:replaysPerPath[p.path]]
	}
	var t tracer
	var plain, withSpans []float64
	rv := map[string][]float64{}
	var notes []string
	for i, k := range order {
		var untraced time.Duration
		timeUntraced := func() error {
			t0 := time.Now()
			_, _, err := r.run(nil, k)
			untraced = time.Since(t0)
			return err
		}
		if i%2 == 0 {
			if err := timeUntraced(); err != nil {
				return nil, nil, err
			}
		}
		first := len(t.spans)
		got, c, err := r.run(&t, k)
		if err != nil {
			return nil, nil, err
		}
		if i%2 == 1 {
			if err := timeUntraced(); err != nil {
				return nil, nil, err
			}
		}
		if !sameMap(served[k], got) {
			notes = append(notes, fmt.Sprintf("replay of deck %s does not match the served map; not counted", p.decks[k].name))
			continue
		}
		spans := t.spans[first:]
		plain = append(plain, untraced.Seconds())
		withSpans = append(withSpans, spans[0].dur().Seconds())
		for name, v := range replayValues(spans, c) {
			rv[name] = append(rv[name], v)
		}
		text, _ := p.decks[k].spiceText()
		rv["spice.deck_mb"] = append(rv["spice.deck_mb"], float64(len(text))/1e6)
	}
	for name, v := range rv {
		set(name, median(v))
	}
	set("trace.replays", float64(len(plain)))
	if len(plain) > 0 {
		over := median(withSpans) - median(plain)
		set("trace.overhead_s", over)
		notes = append(notes, fmt.Sprintf("tracing overhead: replay %.4fs traced vs %.4fs untraced (median of %d; %+.2f%%)",
			median(withSpans), median(plain), len(plain), 100*over/median(plain)))
	}
	notes = append(notes, "self time by span (median per replay): "+selfSummary(t.spans))
	path := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("spans: %d written to %s", len(t.spans), path))
	return m, notes, nil
}

// replayValues folds one replay's spans and counters into per-layer
// values.
func replayValues(spans []span, c counts) map[string]float64 {
	v := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		if name, ok := spanMetric[s.Name]; ok {
			v[name] += s.dur().Seconds()
		}
		if s.Name == "solver.pcg" {
			v["solver.pcg_self_s"] += self[s.ID].Seconds()
		}
		if s.Name == "amg.apply" {
			v["amg.apply_calls"]++
		}
	}
	v["circuit.nodes"] = float64(c.nodes)
	v["circuit.nnz"] = float64(c.nnz)
	v["amg.levels"] = float64(c.levels)
	v["amg.op_complexity"] = c.opComplexity
	v["solver.iterations"] = float64(c.iterations)
	v["solver.spmv_mb_computed"] = c.spmvBytes / 1e6
	v["nn.gemm_calls"] = float64(c.gemmCalls)
	v["nn.forward_alloc_mb"] = float64(c.forwardAlloc) / 1e6
	return v
}

// selfSummary lists the median per-replay self time of every span
// name.
func selfSummary(spans []span) string {
	self := selfTimes(spans)
	per := map[string]map[int]float64{} // name -> trace -> seconds
	for _, s := range spans {
		if per[s.Name] == nil {
			per[s.Name] = map[int]float64{}
		}
		per[s.Name][s.Trace] += self[s.ID].Seconds()
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		var v []float64
		for _, x := range per[n] {
			v = append(v, x)
		}
		parts = append(parts, fmt.Sprintf("%s %.4fs", n, median(v)))
	}
	return strings.Join(parts, ", ")
}

// cacheOutcome reads a served manifest's cache trail: whether the
// response came from the response cache, and whether the solve warm
// started from a cached neighbour.
func cacheOutcome(m *obs.Manifest) (hit, warm bool) {
	if m == nil || m.Cache == nil {
		return false, false
	}
	for _, e := range m.Cache.Events {
		switch {
		case e.Stage == "serve.analyze" && e.Outcome == obs.CacheHit:
			hit = true
		case e.Outcome == obs.CacheWarm:
			warm = true
		}
	}
	return hit, warm
}

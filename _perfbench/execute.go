package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/grid"
	"irfusion/internal/obs"
)

// loopResult is the outcome of the timed closed loop, summed over its
// rounds.
type loopResult struct {
	samples   []sample
	elapsed   time.Duration // per round from its start to its last completion, summed
	exhausted bool          // some client ran out of inputs before a round's deadline
	rounds    int
	gcCycles  float64
	gcPause   time.Duration
	counters  map[string]int64 // obs global counter deltas over the rounds
	cache     cache.Stats      // artifact cache counter deltas over the rounds
}

// maxRound is the longest round of the timed loop. A serving process
// keeps every finished job and cached artifact, about 14 MB per
// 256-die request, so a round bounds the memory a run grows to.
const maxRound = 5 * time.Second

// numRounds is how many rounds the run's --seconds are measured in.
func numRounds(o options) int {
	window := time.Duration(o.seconds * float64(time.Second))
	return max(int((window+maxRound-1)/maxRound), 1)
}

// roundSeconds is the length of each of the run's rounds.
func roundSeconds(o options) float64 { return o.seconds / float64(numRounds(o)) }

// execute runs one workload end to end: inputs, then rounds of timed
// setups, a timed closed loop and the oracle check of its answers,
// then the memory phase and, with tracing, the layer replay. The
// untimed work between rounds spreads the measured seconds over the
// whole run, so that a run averages over slow changes in the speed of
// a shared host.
func execute(w workload, o options, log io.Writer) (*record, error) {
	phase := time.Now()
	p, err := w.build(o)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(log, "phase inputs: %.2fs\n", time.Since(phase).Seconds())
	phase = time.Now()
	p.oracle = memoized(p.oracle)
	setupOracle, err := p.oracle(p.setupDeck)
	if err != nil {
		return nil, fmt.Errorf("oracle of the setup deck: %w", err)
	}

	// Setup: construct the service and time it to its first correct
	// answer, several times, spread over the rounds.
	var setups []float64
	setup := func() error {
		runtime.GC()
		t0 := time.Now()
		s, err := p.newService()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		first := s.call(0, p.setupDeck)
		setups = append(setups, first.end.Sub(t0).Seconds())
		s.close()
		if judge(p, &first, setupOracle); !first.correct {
			return fmt.Errorf("setup: first answer incorrect: %s", first.err)
		}
		return nil
	}
	lr := loopResult{counters: map[string]int64{}}
	rounds := numRounds(o)
	window := time.Duration(roundSeconds(o) * float64(time.Second))
	for r := 0; r < rounds; r++ {
		for i := r * p.setupReps / rounds; i < (r+1)*p.setupReps/rounds; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		round, err := timedRound(p, r, window)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r+1, err)
		}
		if err := checkAll(p, round.samples); err != nil {
			return nil, err
		}
		lr.add(round)
	}
	fmt.Fprintf(log, "phase rounds: %.2fs\n", time.Since(phase).Seconds())
	phase = time.Now()
	heap, err := peakHeap(p)
	if err != nil {
		return nil, fmt.Errorf("memory phase: %w", err)
	}
	fmt.Fprintf(log, "phase memory: %.2fs\n", time.Since(phase).Seconds())

	rec := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: hostInfo(o.root),
	}
	e2e, notes := endToEnd(p, lr, setups, heap)
	rec.Notes = notes
	rec.Result = Result{Attempted: len(lr.samples), Metrics: e2e}
	for _, s := range lr.samples {
		if !s.correct {
			rec.Result.Failed++
		}
	}
	rec.Result.Correct = rec.Result.Failed == 0
	if o.trace {
		layers, tnotes, err := traced(p, lr, o)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		rec.Notes = append(rec.Notes, tnotes...)
		rec.Result.Metrics = layers
	}
	return rec, nil
}

// memoized keeps each deck's oracle map, since every round sends the
// same decks.
func memoized(oracle func(k int) (*grid.Map, error)) func(k int) (*grid.Map, error) {
	var mu sync.Mutex
	maps := map[int]*grid.Map{}
	return func(k int) (*grid.Map, error) {
		mu.Lock()
		m, ok := maps[k]
		mu.Unlock()
		if ok {
			return m, nil
		}
		m, err := oracle(k)
		if err == nil {
			mu.Lock()
			maps[k] = m
			mu.Unlock()
		}
		return m, err
	}
}

// timedRound runs one round of the closed loop on a fresh service
// that has answered the setup deck first, as the setup did.
func timedRound(p *plan, r int, window time.Duration) (loopResult, error) {
	svc, err := p.newService()
	if err != nil {
		return loopResult{}, err
	}
	defer svc.close()
	if p.path != pathCLI {
		if s := svc.call(0, p.setupDeck); s.err != "" {
			return loopResult{}, fmt.Errorf("setup deck: %s", s.err)
		}
	}
	lr := closedLoop(p, r, svc, window)
	if len(lr.samples) == 0 {
		return lr, errors.New("no request was sent: the run has no inputs")
	}
	return lr, nil
}

// add sums a round into the run's result.
func (lr *loopResult) add(r loopResult) {
	lr.samples = append(lr.samples, r.samples...)
	lr.elapsed += r.elapsed
	lr.exhausted = lr.exhausted || r.exhausted
	lr.rounds++
	lr.gcCycles += r.gcCycles
	lr.gcPause += r.gcPause
	for k, v := range r.counters {
		lr.counters[k] += v
	}
	lr.cache.Hits += r.cache.Hits
	lr.cache.Misses += r.cache.Misses
	lr.cache.Stores += r.cache.Stores
	lr.cache.Evictions += r.cache.Evictions
}

// closedLoop runs round r: p.clients callers, each sending its next
// request as soon as the previous answer is back, until the window
// closes. A request in flight at the deadline is waited for and
// counted.
func closedLoop(p *plan, r int, svc service, window time.Duration) loopResult {
	runtime.GC()
	var lr loopResult
	gc0, ctr0, cs0 := gcStats(), obs.GlobalCounters(), svc.cacheStats()

	start := time.Now()
	deadline := start.Add(window)
	per := make([][]sample, p.clients)
	exhausted := make([]bool, p.clients)
	streams := p.streams(r)
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := streams(c)
			var prev *sample
			for i := 0; time.Now().Before(deadline); i++ {
				k := next(i, prev)
				if k < 0 {
					exhausted[c] = true
					return
				}
				per[c] = append(per[c], svc.call(c, k))
				prev = &per[c][len(per[c])-1]
			}
		}(c)
	}
	wg.Wait()

	var last time.Time
	for c := range per {
		lr.samples = append(lr.samples, per[c]...)
		lr.exhausted = lr.exhausted || exhausted[c]
	}
	for _, s := range lr.samples {
		if s.end.After(last) {
			last = s.end
		}
	}
	lr.elapsed = last.Sub(start)
	gc1 := gcStats()
	lr.gcCycles = gc1.cycles - gc0.cycles
	lr.gcPause = gc1.pause - gc0.pause
	lr.counters = map[string]int64{}
	for k, v := range obs.GlobalCounters() {
		lr.counters[k] = v - ctr0[k]
	}
	cs1 := svc.cacheStats()
	lr.cache = cache.Stats{
		Hits: cs1.Hits - cs0.Hits, Misses: cs1.Misses - cs0.Misses,
		Stores: cs1.Stores - cs0.Stores, Evictions: cs1.Evictions - cs0.Evictions,
	}
	sort.Slice(lr.samples, func(i, j int) bool { return lr.samples[i].start.Before(lr.samples[j].start) })
	return lr
}

// memGCPercent is the garbage collector setting of the memory phase:
// a collection after every 5% of heap growth, so the live heap it
// reports follows the answers' working sets closely.
const memGCPercent = 5

// peakHeap is the memory phase, untimed: one caller sends the setup
// deck and the first p.memReqs requests of client 0's stream to a
// fresh service, with a full collection after each answer. It returns
// the peak live heap, in MB, above the live heap before the service
// was constructed: what the service retains plus its working set.
func peakHeap(p *plan) (float64, error) {
	runtime.GC()
	base := heapLive()
	defer debug.SetGCPercent(debug.SetGCPercent(memGCPercent))

	stop := make(chan struct{})
	var peak float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			peak = math.Max(peak, heapLive())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	err := func() error {
		svc, err := p.newService()
		if err != nil {
			return err
		}
		defer svc.close()
		next := p.streams(0)(0)
		var prev *sample
		for i := -1; i < p.memReqs; i++ {
			k := p.setupDeck
			if i >= 0 {
				if k = next(i, prev); k < 0 {
					return errors.New("the memory phase ran out of inputs")
				}
			}
			s := svc.call(0, k)
			if s.err != "" {
				return fmt.Errorf("deck %s: %s", p.decks[k].name, s.err)
			}
			prev = &s
			runtime.GC()
		}
		return nil
	}()
	close(stop)
	sampler.Wait()
	return math.Max(0, peak-base) / 1e6, err
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapLive reads the heap bytes the last garbage collection found
// live, without stopping the world.
func heapLive() float64 {
	s := make([]metrics.Sample, len(heapSample))
	copy(s, heapSample)
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

type gcSnapshot struct {
	cycles float64
	pause  time.Duration
}

func gcStats() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: float64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

// judge decides one sample against its oracle map: a numerical map
// must agree on every pixel; a fused map must be whole and finite and
// is scored by its mean absolute error.
func judge(p *plan, s *sample, oracle *grid.Map) {
	if s.err != "" {
		return
	}
	ok, mae := mapCheck(s.served, oracle)
	s.mae = mae
	if p.fused {
		ok = len(s.served) == len(oracle.Data) && !math.IsInf(mae, 0) && !math.IsNaN(mae)
	}
	s.correct = ok
	if !ok {
		s.err = fmt.Sprintf("map disagrees with the oracle (mean abs error %.3g V)", mae)
	}
}

// checkAll computes the oracle of every distinct deck the loop sent,
// on up to two goroutines, and judges every sample.
func checkAll(p *plan, samples []sample) error {
	byDeck := map[int][]int{}
	var decks []int
	for i, s := range samples {
		if _, seen := byDeck[s.deck]; !seen {
			decks = append(decks, s.deck)
		}
		byDeck[s.deck] = append(byDeck[s.deck], i)
	}
	errs := make([]error, len(decks))
	var wg sync.WaitGroup
	workers := min(2, runtime.GOMAXPROCS(0))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(decks); j += workers {
				m, err := p.oracle(decks[j])
				if err != nil {
					errs[j] = err
					continue
				}
				for _, i := range byDeck[decks[j]] {
					judge(p, &samples[i], m)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return nil
}

// latencies returns every sample's latency in seconds, a failed one
// as +Inf: a failure misses every latency limit.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.correct {
			out[i] = s.latency().Seconds()
		}
	}
	return out
}

// maeFloor is the smallest mean absolute map error reported, 1 nV.
// Numerical maps land near 1e-8 µV, set by where PCG stops; below the
// floor a change of solver would alter the figure without any user
// seeing a difference, and per-pixel agreement is the oracle check's
// job. Fused maps err by about a millivolt.
const maeFloor = 1e-3

// maeDecks is how many distinct decks, lowest index first, the map
// error is averaged over. A fixed set makes it a property of the seed
// and the program, not of how many requests a run got through.
const maeDecks = 64

// meanMAE is the mean absolute map error, in volts, over the first
// maeDecks distinct decks answered correctly.
func meanMAE(samples []sample) float64 {
	byDeck := map[int]float64{}
	for _, s := range samples {
		if s.correct {
			byDeck[s.deck] = s.mae
		}
	}
	decks := make([]int, 0, len(byDeck))
	for k := range byDeck {
		decks = append(decks, k)
	}
	sort.Ints(decks)
	decks = decks[:min(len(decks), maeDecks)]
	sum := 0.0
	for _, k := range decks {
		sum += byDeck[k]
	}
	return sum / float64(max(len(decks), 1))
}

// finite keeps +Inf out of the JSON result, which cannot encode it.
func finite(v float64) float64 { return math.Min(v, math.MaxFloat64) }

func endToEnd(p *plan, lr loopResult, setups []float64, heap float64) (map[string]metric, []string) {
	n := len(lr.samples)
	correct := 0
	for _, s := range lr.samples {
		if s.correct {
			correct++
		}
	}
	lat := latencies(lr.samples)
	t := tailOf(lat)
	m := map[string]metric{
		"throughput_rps": {float64(correct) / lr.elapsed.Seconds(), "1/s"},
		"latency_p50_s":  {finite(median(lat)), "s"},
		"latency_tail_s": {finite(t.Value), "s"},
		"correct_frac":   {float64(correct) / float64(max(n, 1)), "fraction"},
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {heap, "MB"},
		"map_mae_uV":     {math.Max(meanMAE(lr.samples)*1e6, maeFloor), "uV"},
	}
	rule := fmt.Sprintf("p%.1f of %d samples, %d beyond it", t.Percentile, t.Samples, t.Beyond)
	if t.Median {
		rule = fmt.Sprintf("the median: %d samples are too few for %d beyond a percentile above it", t.Samples, minBeyond)
	}
	requests := fmt.Sprintf("requests: %d attempted, %d correct, failed_frac %.4g, %d clients, %d rounds, %.2fs measured",
		n, correct, float64(n-correct)/float64(max(n, 1)), p.clients, lr.rounds, lr.elapsed.Seconds())
	if lr.exhausted {
		requests += " (inputs exhausted before the deadline)"
	}
	notes := []string{
		requests,
		"latency tail: " + rule,
		fmt.Sprintf("setup: %d repetitions, seconds %v", len(setups), roundAll(setups)),
		fmt.Sprintf("peak heap: setup deck and %d requests in sequence on a fresh service", p.memReqs),
	}
	for _, s := range lr.samples {
		if !s.correct {
			notes = append(notes, fmt.Sprintf("failed: deck %s: %s", p.decks[s.deck].name, s.err))
			break
		}
	}
	return m, notes
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

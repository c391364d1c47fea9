// Command perfbench is the end-to-end benchmark of the repository. It
// drives the program only through its public entry points — an
// in-process serve.Server behind httptest, or spice.Parse plus
// core.NumericalAnalyzer for the CLI path — checks every answer
// against an independent direct-solver oracle, and prints each metric
// by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash _perfbench/run.sh --workload serve-eco-256 --seed 3 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 runs
// the same closed loop, then replays a sample of its inputs layer by
// layer with spans and prints the per-layer metrics instead.
// --summarize prints the median and quartiles of every result record
// kept under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	root      string
	summarize bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "seconds measured, in rounds of at most 5 s")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; caches and records go under ROOT/.bench_build")
	fs.BoolVar(&o.summarize, "summarize", false, "print median and quartiles over the kept result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.summarize {
		if err := summarize(stdout, filepath.Join(o.root, ".bench_build", "results")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := execute(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := keepRecord(o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench: keeping result record:", err)
		return 1
	}
	printReport(stdout, w, res)
	line, err := json.Marshal(res.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run keeps under .bench_build/results: the result
// with the host, the run's parameters and the notes of the report.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Result   Result   `json:"result"`
	Notes    []string `json:"notes"`
}

func keepRecord(o options, r *record) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func printReport(w io.Writer, wl workload, r *record) {
	fmt.Fprintf(w, "workload %s (seed %d, %gs, trace %t): %s\n", r.Workload, r.Seed, r.Seconds, r.Trace, wl.why)
	fmt.Fprintf(w, "host: %s\n", r.Host)
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

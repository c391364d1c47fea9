package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code that
// produces the metrics from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if l := layerMetrics[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d: file %+v, code %+v", i, m, l)
		}
	}
	got, _ := endToEnd(&plan{}, loopResult{samples: []sample{{correct: true, end: time.Unix(1, 0)}}, elapsed: time.Second}, []float64{1}, 1)
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("end-to-end metric %s: code reports %+v", m.Name, g)
		}
	}
	if len(got) != len(names) {
		sort.Strings(names)
		t.Errorf("code reports %d end-to-end metrics, file lists %v", len(got), names)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// summarize prints, for every workload and trace mode found among the
// kept result records, each metric's median, quartiles and relative
// spread over the runs, with the hosts and commits they came from.
// The output is a JSON object per workload and mode, one per line, so
// a sequence of them forms the benchmark's per-change trajectory.
func summarize(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type group struct {
		runs    int
		seeds   []int64
		hosts   map[string]bool
		commits map[string]bool
		values  map[string][]float64
		units   map[string]string
	}
	groups := map[string]*group{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%t", r.Workload, r.Trace)
		g := groups[key]
		if g == nil {
			g = &group{hosts: map[string]bool{}, commits: map[string]bool{},
				values: map[string][]float64{}, units: map[string]string{}}
			groups[key] = g
		}
		g.runs++
		g.seeds = append(g.seeds, r.Seed)
		h := r.Host
		h.Commit = ""
		g.hosts[h.String()] = true
		g.commits[r.Host.Commit] = true
		for n, m := range r.Result.Metrics {
			g.values[n] = append(g.values[n], m.Value)
			g.units[n] = m.Unit
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type stat struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"iqr_over_median"`
	}
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g.seeds, func(i, j int) bool { return g.seeds[i] < g.seeds[j] })
		out := struct {
			Group   string          `json:"group"`
			Runs    int             `json:"runs"`
			Seeds   []int64         `json:"seeds"`
			Hosts   []string        `json:"hosts"`
			Commits []string        `json:"commits"`
			Metrics map[string]stat `json:"metrics"`
		}{Group: k, Runs: g.runs, Seeds: g.seeds, Hosts: sortedKeys(g.hosts), Commits: sortedKeys(g.commits),
			Metrics: map[string]stat{}}
		for n, v := range g.values {
			q1, q2, q3 := quartiles(v)
			s := stat{Unit: g.units[n], Median: q2, Q1: q1, Q3: q3}
			if q2 != 0 {
				s.Spread = (q3 - q1) / q2
			}
			out.Metrics[n] = s
		}
		b, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

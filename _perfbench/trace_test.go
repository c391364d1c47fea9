package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "solver.pcg", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "amg.apply", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "amg.apply", Start: at(40), End: at(70)},
		// Overlaps the previous child: the union, not the sum, counts.
		{ID: 4, Parent: 1, Name: "amg.apply", Start: at(60), End: at(80)},
		// Runs past the parent's end: only the covered part counts.
		{ID: 5, Parent: 1, Name: "amg.apply", Start: at(95), End: at(120)},
		{ID: 6, Parent: 2, Name: "leaf", Start: at(12), End: at(14)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - (20+40+5)*time.Millisecond,
		2: 18 * time.Millisecond,
		3: 30 * time.Millisecond,
		6: 2 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	var tr tracer
	tr.startTrace()
	tr.do("replay", func() {
		tr.do("solver.pcg", func() { tr.do("amg.apply", func() {}) })
		tr.do("features.golden_map", func() {})
	})
	parents := map[string]int{}
	byID := map[int]string{}
	for _, s := range tr.spans {
		byID[s.ID] = s.Name
		parents[s.Name] = s.Parent
		if s.Trace != 1 || s.End.Before(s.Start) {
			t.Errorf("span %+v: want trace 1 and end after start", s)
		}
	}
	for child, parent := range map[string]string{"solver.pcg": "replay", "amg.apply": "solver.pcg", "features.golden_map": "replay"} {
		if byID[parents[child]] != parent {
			t.Errorf("%s: parent %q, want %q", child, byID[parents[child]], parent)
		}
	}
	if parents["replay"] != 0 {
		t.Errorf("root has parent %d", parents["replay"])
	}

	var off *tracer // untraced replays run the same code with a nil tracer
	off.startTrace()
	ran := false
	off.do("replay", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

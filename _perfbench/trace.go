package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a trace's root
	Trace  int       `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory. A nil tracer records nothing, which
// is how the same replay code runs untraced. Replays run on one
// goroutine, so the tracer needs no lock.
type tracer struct {
	spans []span
	open  []int // stack of open span indexes
	trace int
}

// startTrace begins a new trace; spans until the next call share its id.
func (t *tracer) startTrace() {
	if t != nil {
		t.trace++
	}
}

// begin opens a span as a child of the innermost open one and returns
// its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Now()
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children, keyed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0].After(curB):
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
		case x[1].After(curB):
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeSpans writes every span of the run as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

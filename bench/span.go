package main

import (
	"fmt"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark itself
// around the call (nothing inside the simulator is instrumented). Parent is
// the index of the enclosing span, or -1 for a root.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"` // since the rep's first line of work
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps a rep's spans in memory. A nil tracer records nothing, so
// the untraced pass runs the same workload code with tracing off.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string, t0 time.Time) *tracer {
	return &tracer{workload: workload, t0: t0}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent,
		StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

// selfSeconds returns each span name's self time: its spans' durations
// minus the part their direct children cover, summed over the spans of
// that name.
func selfSeconds(spans []span) map[string]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-covered[i]) / 1e9
	}
	return out
}

// checkSpans reports the first malformed span: a child outside its parent,
// a parent recorded after its child, or a negative duration or self time.
func checkSpans(spans []span) error {
	covered := make([]int64, len(spans))
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q has parent %d recorded after it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				return fmt.Errorf("span %d %q lies outside its parent %q", i, s.Name, p.Name)
			}
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range spans {
		if covered[i] > s.EndNs-s.StartNs {
			return fmt.Errorf("span %d %q has negative self time", i, s.Name)
		}
	}
	return nil
}

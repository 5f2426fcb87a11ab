package shard

// Deterministic merged tracing. Each node records its events (trace.Event)
// in its own event order, which the package doc argues is
// partition-independent, on its shard's log; the merge sorts them by (time,
// node), each node's in the order recorded (trace.Sort) — a total order,
// since a node lives in exactly one shard. The merged trace is therefore
// identical for every shard count.

import (
	"strings"

	"repro/internal/trace"
)

// Events returns the merged trace of every shard: every event of the run,
// or with Config.Trace those not yet flushed into it. Safe to call between
// Run invocations only.
func (s *Sim) Events() []trace.Event {
	var all []trace.Event
	for _, sh := range s.shards {
		all = append(all, sh.log...)
	}
	trace.Sort(all)
	return all
}

// TraceText renders the merged trace, one event a line, each PSN by name.
// Safe to call between Run invocations only.
func (s *Sim) TraceText() string {
	var b strings.Builder
	for _, e := range s.Events() {
		e.Render(&b, s.g.Node(e.Node).Name)
		b.WriteByte('\n')
	}
	return b.String()
}

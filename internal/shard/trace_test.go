package shard

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// With Config.Trace the shards hand each second's events to the ring at its
// sample and the rest when Run returns: after a Run they hold no event, at
// no point more than about a second's, and the ring holds what a ring fed
// the whole merged log of a run without one would, at any shard count and
// however Run is resumed.
func TestTraceRingDrainsTheShards(t *testing.T) {
	g := testGraph(t)
	cfg := adaptiveConfig(g, 1)
	cfg.MeasureSample = 1
	until := 30*sim.Second + 500*sim.Millisecond
	all := run(t, cfg, until).Events()
	want := trace.NewRing(100)
	for _, e := range all {
		want.Add(e)
	}
	for _, shards := range []int{1, 2, 4} {
		c := cfg
		c.Shards, c.Trace = shards, trace.NewRing(100)
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []sim.Time{2500 * sim.Millisecond, 17 * sim.Second, until} {
			s.Run(at)
			if n := len(s.Events()); n != 0 {
				t.Fatalf("shards=%d: %d events left in the shards after Run(%v)", shards, n, at)
			}
		}
		if got := c.Trace.Dump(); got != want.Dump() || c.Trace.Overwritten() != want.Overwritten() {
			t.Errorf("shards=%d: the ring holds %d events, %d overwritten, want %d, %d:\n%s", shards,
				c.Trace.Len(), c.Trace.Overwritten(), want.Len(), want.Overwritten(), firstDiff(got, want.Dump()))
		}
		// A log grows to what it holds between flushes and keeps its array:
		// a second's events, not the run's.
		held := 0
		for _, sh := range s.shards {
			held += cap(sh.log)
		}
		if held > len(all)/5 {
			t.Errorf("shards=%d: the logs grew to hold %d of the run's %d events", shards, held, len(all))
		}
	}
}

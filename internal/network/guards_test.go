package network

import (
	"strings"
	"testing"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
)

// The unsharded engine's side of the run-time guards (internal/shard has the
// same two tests on its Audit): ConvergenceAudit reports a write through an
// update the PSNs share — single-path or multipath, one table holds them — and
// a schedule the kernel refused, in flight or not.

func TestConvergenceAuditCatchesWriteThroughPublishedUpdate(t *testing.T) {
	for _, multipath := range []bool{false, true} {
		cfg := lightRingConfig(node.DSPF, 3)
		cfg.Multipath = multipath
		n := New(cfg)
		n.Run(60 * sim.Second)
		var u *flooding.Update
		n.routers.Updates(func(h *flooding.Update) { u = h })
		if u == nil {
			t.Fatalf("multipath %v: no PSN holds a flooded update after six measurement periods", multipath)
		}
		if err := n.ConvergenceAudit(); err != nil {
			t.Fatalf("multipath %v: %v", multipath, err)
		}
		for name, write := range map[string]func() (undo func()){
			"Costs[1] *= 2": func() func() { old := u.Costs[1]; u.Costs[1] *= 2; return func() { u.Costs[1] = old } },
			"Links[0]++":    func() func() { u.Links[0]++; return func() { u.Links[0]-- } },
		} {
			undo := write()
			if err := n.ConvergenceAudit(); err == nil || !strings.Contains(err.Error(), "was written after NewUpdate published it") {
				t.Errorf("multipath %v, u.%s: ConvergenceAudit = %v, want the write reported", multipath, name, err)
			}
			undo()
			if err := n.ConvergenceAudit(); err != nil {
				t.Fatalf("multipath %v, u.%s undone: %v", multipath, name, err)
			}
		}
	}
}

func TestConvergenceAuditCatchesDroppedScheduleError(t *testing.T) {
	for _, metric := range []node.MetricKind{node.HNSPF, node.BF1969} {
		n := lightRing(metric, 3)
		n.Run(20 * sim.Second)
		if err := n.ConvergenceAudit(); err != nil {
			t.Fatal(err)
		}
		k := n.Kernel()
		k.ScheduleCallAt(k.Now()-sim.Millisecond, n.measureFn, n.psns[0]) // the measurement tick that never re-arms
		if err := n.ConvergenceAudit(); err == nil || !strings.Contains(err.Error(), "refused 1 schedules") {
			t.Errorf("%v: ConvergenceAudit = %v, want the refusal reported", metric, err)
		}
	}
}

package shard

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Run-time twins of the conventions a lint rule used to look for in this
// package's source: each violation is planted in a real simulation and must
// be caught where the invariant lives, whatever the code that broke it
// looks like.

// heldUpdate returns the update node 0 flooded at its refresh, which falls
// due at its first measurement, as node 0's own router holds it.
func heldUpdate(t *testing.T, s *Sim) *flooding.Update {
	t.Helper()
	var held *flooding.Update
	s.nodeAt[0].Router.Updates(func(u *flooding.Update) {
		if u.Origin == 0 {
			held = u
		}
	})
	if held == nil || len(held.Costs) == 0 {
		t.Fatalf("node 0 holds no update of its own that lists a link: %+v", held)
	}
	return held
}

// A *flooding.Update is shared by pointer with every router of every shard
// that accepted it. A write through one — a cost, the sequence number, or a
// link, which aliases Graph.Out itself — is caught by the next Audit, at
// any shard count; restoring the bytes restores a clean audit.
func TestAuditCatchesWriteThroughPublishedUpdate(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := run(t, adaptiveConfig(testGraph(t), shards), 7*sim.Second)
		u := heldUpdate(t, s)
		want := fmt.Sprintf("from node %d was written after NewUpdate published it", u.Origin)
		for name, write := range map[string]func() (undo func()){
			"Costs[0] = 1": func() func() { old := u.Costs[0]; u.Costs[0] = 1; return func() { u.Costs[0] = old } },
			"Seq++":        func() func() { u.Seq++; return func() { u.Seq-- } },
			"Links[0]++":   func() func() { u.Links[0]++; return func() { u.Links[0]-- } },
		} {
			undo := write()
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d shards, u.%s: Audit = %v, want %q", shards, name, err, want)
			}
			undo()
			if err := s.Audit(); err != nil {
				t.Fatalf("%d shards, u.%s undone: %v", shards, name, err)
			}
		}
	}
}

// Every non-arrival event sits at least one tick after the instant that
// scheduled it. mustCallAt holds that for any delay, however it was computed:
// a literal zero, a FromSeconds that rounded to zero, or a struct field
// nothing re-validated.
func TestZeroTickScheduleCaught(t *testing.T) {
	s := run(t, testConfig(testGraph(t), 2), sim.Second)
	sh := s.shards[0]
	n := sh.nodes[0]
	now := sh.kernel.Now()
	for name, schedule := range map[string]func(){
		"0 ticks":                 func() { mustCallAt(sh.kernel, now, sh.sourceCall, n) },
		"FromSeconds rounds to 0": func() { mustCallAt(sh.kernel, now+sim.FromSeconds(4e-7), sh.sourceCall, n) },
		"in the past":             func() { mustCallAt(sh.kernel, now-1, sh.sourceCall, n) },
		"a zero tick period": func() {
			node.Boot(s.cfg.Metric, s.cfg.Adaptive, false, 0, s.g, []*node.PSN{&n.PSN}, func(l topology.LinkID) *node.Trunk { return &s.linkAt[l].Trunk }, 0)
			sh.tick(now, n)
		},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "at least one tick") {
					t.Errorf("%s: recovered %q, want the named delay-floor panic", name, msg)
				}
			}()
			schedule()
		}()
	}
	before := sh.kernel.Stats().Scheduled
	mustCallAt(sh.kernel, now+1, sh.sourceCall, n).Cancel()
	if got := sh.kernel.Stats().Scheduled; got != before+1 {
		t.Errorf("a 1-tick delay scheduled %d events, want 1", got-before)
	}
}

// A schedule the kernel refused is an event that never fires, and nothing
// else in a run can observe an absence. However the error was lost — never
// looked at, blanked, deferred, on either absolute-time form — the
// kernel counted the refusal and the next Audit reports it.
func TestAuditCatchesDroppedScheduleError(t *testing.T) {
	drops := map[string]func(k *sim.Kernel){
		"bare ScheduleAt":             func(k *sim.Kernel) { k.ScheduleAt(k.Now()-1, func(sim.Time) {}) },
		"blanked ScheduleAt":          func(k *sim.Kernel) { h, _ := k.ScheduleAt(k.Now()-1, func(sim.Time) {}); _ = h },
		"deferred ScheduleTailCallAt": func(k *sim.Kernel) { defer k.ScheduleTailCallAt(k.Now()-1, 0, func(sim.Time, any) {}, nil) },
	}
	for name, drop := range drops {
		s := run(t, testConfig(testGraph(t), 2), sim.Second)
		drop(s.shards[1].kernel)
		if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "shard 1: the kernel refused 1 schedules") {
			t.Errorf("%s: Audit = %v, want the refusal reported on shard 1", name, err)
		}
	}
}

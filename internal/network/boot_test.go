package network

import (
	"testing"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestBootInSteadyState: the engine boots a network that is already running.
// Min-hop without faults reports nothing, so every origination is a 50 s
// refresh: none in the first measurement period (no boot flood), then node i
// at its measurement 1 + i mod 5 and every fifth one after, so the period
// from k·10 s holds exactly the nodes i ≡ k−1 (mod 5), never more than
// ⌈N/5⌉ — where every refresh used to fall due in the same period.
// internal/shard's test of the same name holds the sharded engine to it.
func TestBootInSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		periods int
	}{
		{"arpanet", topology.Arpanet(), 12},
		{"hier:32x32", topology.Hierarchical(32, 32, 1987), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := New(Config{Graph: g, Matrix: traffic.NewMatrix(g.NumNodes()), Metric: node.MinHop, Seed: 1987})
			nodes := g.NumNodes()
			before := int64(0)
			for k := 0; k < tc.periods; k++ {
				n.Run(sim.Time(k+1)*node.MeasurementPeriod - 1)
				got := n.Report().UpdatesOriginated - before
				before += got
				want := int64(0)
				for i := 0; k > 0 && i < nodes; i++ {
					if i%5 == (k-1)%5 {
						want++
					}
				}
				if got != want || got > int64((nodes+4)/5) {
					t.Errorf("period %d (from %ds): %d originations, want %d", k, 10*k, got, want)
				}
			}
			if err := n.ConvergenceAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepairedLineEasesIn: the running network boots at the floor, but a
// repaired line is a line coming up (§5.4). Its end floods MaxCost at the
// repair, and on an idle line every PSN then sees the cost walk down one
// MaxDecrease a measurement period to the floor, never jumping.
func TestRepairedLineEasesIn(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	n := New(Config{Graph: g, Matrix: traffic.NewMatrix(g.NumNodes()), Metric: node.HNSPF, Seed: 1})
	l, _ := g.FindTrunk(0, 1)
	params := core.DefaultParams(topology.T56)
	floor := n.links[l].Module.Floor()
	far := n.psns[2] // not an end of the trunk: it learns the cost only by flooding
	if c := far.Router.Cost(l); c != floor {
		t.Fatalf("boot: PSN 2 believes cost %v for the trunk, want its floor %v", c, floor)
	}
	n.Kernel().Schedule(20*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Kernel().Schedule(25*sim.Second, func(sim.Time) { n.SetTrunkUp(l) }) // PSN 0 measures at 30 s, 40 s, …
	n.Run(26 * sim.Second)
	if c := far.Router.Cost(l); c != params.MaxCost {
		t.Fatalf("repair: PSN 2 believes cost %v, want MaxCost %v", c, params.MaxCost)
	}
	want := params.MaxCost
	for at := 31 * sim.Second; want > floor; at += node.MeasurementPeriod {
		n.Run(at)
		want = max(want-params.MaxDecrease(), floor)
		if c := far.Router.Cost(l); c != want {
			t.Fatalf("%v: PSN 2 believes cost %v, want %v (one MaxDecrease a period down to the floor)", at, c, want)
		}
	}
}

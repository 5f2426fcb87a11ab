package network

import (
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestBF1969ConvergesAndDelivers(t *testing.T) {
	g := topology.Ring(6, topology.T56)
	m := traffic.Uniform(g, 50000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.BF1969, Seed: 30, Warmup: 30 * sim.Second})
	n.Run(180 * sim.Second)
	r := n.Report()
	if r.DeliveredRatio < 0.98 {
		t.Errorf("delivered ratio %.3f at light load", r.DeliveredRatio)
	}
	// The vectors converge: under light load every line costs about the
	// queue constant, so node 0's next lines follow minimum-hop paths.
	want := topology.NewSearch(g)
	want.From(0, -1, nil)
	for d := topology.NodeID(1); int(d) < g.NumNodes(); d++ {
		at, hops := topology.NodeID(0), 0
		for ; at != d && hops <= g.NumNodes(); hops++ {
			line := n.psns[at].NextLine(d)
			if line < 0 {
				t.Fatalf("node %d has no route to %d", at, d)
			}
			at = g.Link(g.Out(at)[line]).To
		}
		if hops != want.Hops(d) {
			t.Errorf("node 0 reaches %d in %d hops, the fewest are %d", d, hops, want.Hops(d))
		}
	}
	// At light load queues are near empty, so costs are near static and the
	// converged next hops form loop-free paths: no packet's TTL expires.
	if r.LoopDrops != 0 {
		t.Errorf("%d loop drops at light load; near-static costs must route loop-free", r.LoopDrops)
	}
	// Exchanges happen every 2/3 s per node.
	if r.UpdatePeriodPerNode < 0.5 || r.UpdatePeriodPerNode > 1.0 {
		t.Errorf("exchange period %.2f s, want ~0.67", r.UpdatePeriodPerNode)
	}
	// No SPF runs in 1969 mode: there is no table of routers to run it.
	if n.routers != nil {
		t.Error("Bellman-Ford mode built an SPF table")
	}
}

func TestBF1969WorseThanDSPFUnderLoad(t *testing.T) {
	// §2.2: "the performance of D-SPF was far superior to that of the
	// Bellman-Ford algorithm." Same congested network, both algorithms.
	run := func(k node.MetricKind) Report {
		g := topology.Arpanet()
		m := traffic.Gravity(g, topology.ArpanetWeights(), 260000)
		n := New(Config{Graph: g, Matrix: m, Metric: k, Seed: 31, Warmup: 60 * sim.Second})
		n.Run(260 * sim.Second)
		return n.Report()
	}
	bf := run(node.BF1969)
	dspf := run(node.DSPF)
	t.Logf("BF1969: delivered %.3f, delay %.0f ms, loop drops %d, routing %.1f kbps",
		bf.DeliveredRatio, bf.RoundTripDelayMs, bf.LoopDrops, bf.RoutingKbps)
	t.Logf("D-SPF:  delivered %.3f, delay %.0f ms, loop drops %d, routing %.1f kbps",
		dspf.DeliveredRatio, dspf.RoundTripDelayMs, dspf.LoopDrops, dspf.RoutingKbps)
	if bf.DeliveredRatio >= dspf.DeliveredRatio {
		t.Errorf("Bellman-Ford delivered %.3f >= D-SPF %.3f under load",
			bf.DeliveredRatio, dspf.DeliveredRatio)
	}
	// The volatile instantaneous metric produces transient loops that SPF
	// cannot (consistent maps): Bellman-Ford must show more TTL expiries.
	if bf.LoopDrops <= dspf.LoopDrops {
		t.Errorf("Bellman-Ford loop drops %d <= D-SPF's %d", bf.LoopDrops, dspf.LoopDrops)
	}
	// The 2/3-second exchange burns far more control bandwidth than
	// 10-second flooding.
	if bf.RoutingKbps <= dspf.RoutingKbps {
		t.Errorf("Bellman-Ford routing overhead %.1f <= D-SPF's %.1f kbps",
			bf.RoutingKbps, dspf.RoutingKbps)
	}
}

func TestBF1969RoutesAroundFailure(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 30000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.BF1969, Seed: 32, Warmup: 30 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(60*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Run(300 * sim.Second)
	r := n.Report()
	if r.DeliveredRatio < 0.95 {
		t.Errorf("delivered ratio %.3f across a failure", r.DeliveredRatio)
	}
}

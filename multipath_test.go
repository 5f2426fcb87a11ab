package arpanet

// §4.5: "while HN-SPF should vastly improve load-sharing... it will be
// most effective when network traffic consists of several small
// node-to-node flows. To accomplish load-sharing when network traffic is
// dominated by several large flows would require a multi-path routing
// algorithm." These tests exercise that extension: equal-cost multipath
// forwarding splitting one large flow over parallel paths.

import "testing"

// largeFlowRun drives one big flow over a 2×2 grid: R0.C0 → R1.C1 has two
// equal-cost 2-hop paths. The flow is 1.6× one trunk — impossible for
// single-path routing, comfortable for two paths.
func largeFlowRun(t *testing.T, multipath bool, seed int64) Report {
	t.Helper()
	topo := Grid(2, 2, T56)
	tr := topo.NewTraffic()
	tr.SetRate("R0.C0", "R1.C1", 1.6*56000)
	return mustRun(t, Spec{
		Topology: topo, Traffic: tr,
		Metric: HNSPF, Seed: seed, WarmupSeconds: 60, Seconds: 300, Multipath: multipath,
	}).Report
}

func TestMultipathSplitsLargeFlow(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation test")
	}
	// Any single seed is a coin flip: at 0.8 load per path the equal-cost
	// split is bistable — a cost excursion beyond the tolerance collapses
	// the DAG to one path until the next measurement period re-equalizes —
	// so individual realizations range from ~0.90 to ~1.00 delivered.
	// Average a few seeds and compare against single-path on the same
	// seeds; the load-sharing claim is about the means.
	seeds := []int64{1, 3, 6}
	var single, multi float64
	var singleDrops, multiDrops int64
	for _, seed := range seeds {
		s := largeFlowRun(t, false, seed)
		m := largeFlowRun(t, true, seed)
		single += s.DeliveredRatio / float64(len(seeds))
		multi += m.DeliveredRatio / float64(len(seeds))
		singleDrops += s.BufferDrops
		multiDrops += m.BufferDrops
	}
	t.Logf("single-path: delivered %.2f, drops %d", single, singleDrops)
	t.Logf("multipath:   delivered %.2f, drops %d", multi, multiDrops)

	// Single-path routing can carry at most one trunk's worth (~62%).
	if single > 0.75 {
		t.Errorf("single-path delivered %.2f of a 1.6-trunk flow; should be capped near 0.62",
			single)
	}
	// Multipath splits the flow over both paths and delivers nearly all.
	if multi < 0.93 {
		t.Errorf("multipath delivered only %.2f", multi)
	}
	if multi < single+0.2 {
		t.Errorf("multipath delivered %.2f, not clearly better than single-path %.2f",
			multi, single)
	}
	if multiDrops >= singleDrops {
		t.Errorf("multipath drops %d should be far below single-path %d",
			multiDrops, singleDrops)
	}
}

func TestMultipathHarmlessOnTreePaths(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation test")
	}
	// On a topology without equal-cost alternatives (a line), multipath
	// must behave exactly like single-path.
	run := func(multipath bool) Report {
		topo := NewTopology()
		topo.AddNode("A")
		topo.AddNode("B")
		topo.AddNode("C")
		topo.AddTrunk("A", "B", T56, 0.001)
		topo.AddTrunk("B", "C", T56, 0.001)
		tr := topo.NewTraffic()
		tr.SetRate("A", "C", 20000)
		return mustRun(t, Spec{
			Topology: topo, Traffic: tr,
			Metric: HNSPF, Seed: 4, WarmupSeconds: 30, Seconds: 120, Multipath: multipath,
		}).Report
	}
	a, b := run(false), run(true)
	if a.DeliveredPackets != b.DeliveredPackets || a.ActualPathHops != b.ActualPathHops {
		t.Errorf("multipath changed behaviour on a path graph: %+v vs %+v",
			a.DeliveredPackets, b.DeliveredPackets)
	}
}

func TestMultipathWorksWithAllMetrics(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, m := range []Metric{HNSPF, DSPF, MinHop} {
		topo := Grid(2, 2, T56)
		tr := topo.UniformTraffic(40000)
		r := mustRun(t, Spec{Topology: topo, Traffic: tr, Metric: m, Seed: 5, WarmupSeconds: 30, Seconds: 120, Multipath: true}).Report
		if r.DeliveredRatio < 0.99 {
			t.Errorf("%v multipath delivered %.3f at light load", m, r.DeliveredRatio)
		}
	}
}

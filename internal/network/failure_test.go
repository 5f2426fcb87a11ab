package network

// Failure-injection tests: partitions, flapping trunks, buffer sizing and
// metric dynamics under faults.

import (
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestPartitionAndHeal(t *testing.T) {
	// A 6-ring loses two opposite trunks at t=60: {1,2,3} and {4,5,0} are
	// cut apart. Cross-partition traffic must be dropped as unroutable,
	// and delivery must resume once one trunk heals.
	g := topology.Ring(6, topology.T56)
	m := traffic.Uniform(g, 60000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 9, Warmup: 30 * sim.Second})
	la, _ := g.FindTrunk(0, 1)
	lb, _ := g.FindTrunk(3, 4)
	n.Kernel().Schedule(60*sim.Second, func(sim.Time) {
		n.SetTrunkDown(la)
		n.SetTrunkDown(lb)
	})
	n.Run(200 * sim.Second)
	during := n.Report()
	if during.NoRouteDrops == 0 {
		t.Fatal("a partition must produce no-route drops")
	}
	// Heal one trunk: full connectivity returns (a ring minus one trunk is
	// a line).
	n.SetTrunkUp(la)
	n.Run(400 * sim.Second)
	after := n.Report()
	if after.NoRouteDrops-during.NoRouteDrops > during.NoRouteDrops/10 {
		t.Errorf("no-route drops kept accumulating after the heal: %d then %d more",
			during.NoRouteDrops, after.NoRouteDrops-during.NoRouteDrops)
	}
	if after.DeliveredPackets <= during.DeliveredPackets {
		t.Error("delivery should resume after healing")
	}
}

func TestFlappingTrunk(t *testing.T) {
	// A trunk that flaps every 30 s must not wedge the simulator or
	// blackhole traffic — the ring always has the long way around.
	g := topology.Ring(5, topology.T56)
	m := traffic.Uniform(g, 40000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 10, Warmup: 30 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	for i := 0; i < 8; i++ {
		at := sim.Time(60+30*i) * sim.Second
		down := i%2 == 0
		n.Kernel().Schedule(at, func(sim.Time) {
			if down {
				n.SetTrunkDown(l)
			} else {
				n.SetTrunkUp(l)
			}
		})
	}
	n.Run(400 * sim.Second)
	r := n.Report()
	if r.DeliveredRatio < 0.95 {
		t.Errorf("delivered ratio %.3f across 8 flaps, want >= 0.95", r.DeliveredRatio)
	}
}

func TestQueueLimitControlsDrops(t *testing.T) {
	// At overload, a smaller buffer drops more. (With M/M/1-ish arrivals
	// the blocking probability of M/M/1/K rises as K falls.)
	run := func(limit int) int64 {
		g := topology.Line(2, topology.T56)
		m := traffic.NewMatrix(2)
		m.Set(0, 1, 64000) // ~1.14× the trunk
		n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 11,
			QueueLimit: limit, Warmup: 20 * sim.Second})
		n.Run(120 * sim.Second)
		return n.Report().BufferDrops
	}
	small, large := run(5), run(200)
	if small <= large {
		t.Errorf("5-packet buffer dropped %d, 200-packet buffer %d; want more drops with less buffer",
			small, large)
	}
	if large == 0 {
		t.Error("even a big buffer must drop at sustained 114% load")
	}
}

func TestCostSeriesTracksMetricDynamics(t *testing.T) {
	// Track the advertised cost of a trunk that gets loaded mid-run: the
	// series must stay within the metric's bounds and actually move.
	g := topology.Line(3, topology.T56)
	m := traffic.NewMatrix(3)
	m.Set(0, 2, 40000) // ~71% of each trunk
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 12, Warmup: 10 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	series := n.TrackLinkCost(l)
	n.Run(300 * sim.Second)
	if series.Len() < 290 {
		t.Fatalf("cost series has %d samples, want ~300", series.Len())
	}
	lo, hi := series.MinMaxY()
	if lo < 30 || hi > 90 {
		t.Errorf("cost series range [%v, %v] outside the 56T bounds [30, 90]", lo, hi)
	}
	// The link starts at its 90-unit ceiling (ease-in) and must descend to
	// the ramp region for 71% utilization.
	final := series.Y[series.Len()-1]
	if final <= 30 || final >= 90 {
		t.Errorf("final cost %v should sit inside the ramp for a 71%%-utilized link", final)
	}
}

func TestDownTrunkAdvertisedAtDownCost(t *testing.T) {
	// While a trunk is down, updates advertise DownCost for it, so no PSN
	// routes over it even transiently once flooding converges.
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 20000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.DSPF, Seed: 13, Warmup: 10 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(30*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Run(120 * sim.Second)
	// Every PSN's router must believe the link is unusable.
	for _, p := range n.psns {
		if c := p.router.Cost(l); c != DownCost {
			t.Fatalf("PSN %d believes cost %v for the down link, want DownCost", p.id, c)
		}
	}
	if r := n.Report(); r.DeliveredRatio < 0.99 {
		t.Errorf("ring should absorb one failure, delivered %.3f", r.DeliveredRatio)
	}
}

func TestEaseInIsGradualAtPacketLevel(t *testing.T) {
	// Figure 12's ease-in, observed in the packet simulator: after a trunk
	// returns it advertises its ceiling (90 units = 3 hops), so on a
	// triangle the two-hop detour (~62 units) stays preferred until the
	// cost walks down — the trunk's utilization recovers over several
	// measurement periods instead of snapping back.
	g := topology.Ring(3, topology.T56)
	m := traffic.NewMatrix(3)
	m.Set(0, 1, 25000)
	m.Set(1, 0, 25000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 14, Warmup: 30 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	series := n.TrackLink(l)
	n.Kernel().Schedule(100*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Kernel().Schedule(200*sim.Second, func(sim.Time) { n.SetTrunkUp(l) })
	n.Run(360 * sim.Second)

	window := func(from, to float64) float64 {
		var sum float64
		var k int
		for i := 0; i < series.Len(); i++ {
			if series.X[i] >= from && series.X[i] < to {
				sum += series.Y[i]
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return sum / float64(k)
	}
	preFail := window(60, 100)
	justAfterUp := window(200, 215)
	settled := window(280, 360)
	t.Logf("utilization: pre-fail %.3f, first 15 s after up %.3f, settled %.3f",
		preFail, justAfterUp, settled)
	if settled < 0.5*preFail {
		t.Fatalf("restored trunk never recovered its share: %.3f vs %.3f", settled, preFail)
	}
	// The ease-in: right after coming up the trunk carries clearly less
	// than its settled share (it is still advertising near-ceiling costs).
	if justAfterUp > 0.7*settled {
		t.Errorf("traffic snapped back immediately (%.3f vs settled %.3f) — no ease-in",
			justAfterUp, settled)
	}
}

func TestConvergenceAfterFailureIsFast(t *testing.T) {
	// §3.2 factor 3: flooding is fast relative to everything else, so
	// re-routing after a failure completes within a couple of seconds —
	// no-route drops must stop accumulating almost immediately.
	g := topology.Ring(5, topology.T56)
	m := traffic.Uniform(g, 50000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.DSPF, Seed: 15, Warmup: 10 * sim.Second})
	l, _ := g.FindTrunk(1, 2)
	n.Kernel().Schedule(50*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Run(53 * sim.Second) // 3 s after the failure
	early := n.Report().NoRouteDrops
	n.Run(120 * sim.Second)
	late := n.Report().NoRouteDrops
	t.Logf("no-route drops: %d within 3 s of failure, %d more in the following 67 s", early, late-early)
	if late != early {
		t.Errorf("drops kept accumulating after convergence: %d → %d", early, late)
	}
}

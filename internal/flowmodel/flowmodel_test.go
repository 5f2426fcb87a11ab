package flowmodel

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/queueing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func unit(topology.LinkID) float64 { return 1 }

func TestAssignLine(t *testing.T) {
	g := topology.Line(3, topology.T56)
	m := traffic.NewMatrix(3)
	m.Set(0, 2, 28000) // half a 56k trunk, crossing both links
	a := Assign(g, m, unit)

	l01, _ := g.FindTrunk(0, 1)
	l12, _ := g.FindTrunk(1, 2)
	if a.LinkBPS[l01] != 28000 || a.LinkBPS[l12] != 28000 {
		t.Errorf("link loads = %v, %v; want 28000 each", a.LinkBPS[l01], a.LinkBPS[l12])
	}
	if got := a.Utilization(l01); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	// Reverse direction carries nothing.
	if a.LinkBPS[g.Link(l01).Reverse()] != 0 {
		t.Error("reverse link should be empty")
	}
	if a.HopMean != 2 {
		t.Errorf("HopMean = %v, want 2", a.HopMean)
	}
	// Delay: two links at rho=0.5 → 2 × (2×service) + 2 × prop.
	s := queueing.ServiceTime(56000)
	want := 2 * (2*s + g.Link(l01).PropDelay)
	if math.Abs(a.DelayMean-want) > 1e-9 {
		t.Errorf("DelayMean = %v, want %v", a.DelayMean, want)
	}
	if a.Unreachable != 0 {
		t.Error("nothing should be unreachable")
	}
	if u := a.MaxUtilization(); u > 0.99 {
		t.Errorf("half-loaded line at utilization %v", u)
	}
}

func TestAssignRespectsCosts(t *testing.T) {
	// Diamond: A-B-D vs A-C-D; price the B path out and all traffic moves.
	g := topology.New()
	a_, b := g.AddNode("A"), g.AddNode("B")
	c, d := g.AddNode("C"), g.AddNode("D")
	ab, _ := g.AddTrunk(a_, b, topology.T56)
	ac, _ := g.AddTrunk(a_, c, topology.T56)
	g.AddTrunk(b, d, topology.T56)
	cd, _ := g.AddTrunk(c, d, topology.T56)

	m := traffic.NewMatrix(4)
	m.Set(a_, d, 10000)
	cost := func(l topology.LinkID) float64 {
		if l == ab || l == g.Link(ab).Reverse() {
			return 10
		}
		return 1
	}
	asg := Assign(g, m, cost)
	if asg.LinkBPS[ac] != 10000 || asg.LinkBPS[cd] != 10000 {
		t.Error("traffic should route via C")
	}
	if asg.LinkBPS[ab] != 0 {
		t.Error("expensive path should be empty")
	}
}

func TestAssignUnreachable(t *testing.T) {
	g := topology.New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("C")
	g.AddTrunk(0, 1, topology.T56)
	m := traffic.NewMatrix(3)
	m.Set(0, 2, 5000) // C is isolated
	m.Set(0, 1, 1000)
	a := Assign(g, m, unit)
	if a.Unreachable != 5000 {
		t.Errorf("Unreachable = %v, want 5000", a.Unreachable)
	}
}

func TestSaturationFlag(t *testing.T) {
	g := topology.Line(2, topology.T56)
	m := traffic.NewMatrix(2)
	m.Set(0, 1, 100000) // ~1.8× the trunk
	a := Assign(g, m, unit)
	// The delay prediction caps at 99% utilization: large but finite.
	l := g.Out(0)[0]
	if got, want := a.LinkDelay(l), queueing.MM1Delay(queueing.ServiceTime(56000), 0.99)+g.Link(l).PropDelay; got != want {
		t.Errorf("saturated LinkDelay = %v, want %v", got, want)
	}
	if a.MaxUtilization() < 1.5 {
		t.Errorf("MaxUtilization = %v, want > 1.5", a.MaxUtilization())
	}
}

// Sanity: the flow model reproduces the §4.4 story — when a satellite
// shortcut parallels a multi-hop terrestrial path, HN-SPF floor costs take
// the shortcut (under one extra hop of penalty) while D-SPF floor costs
// shun it (~25× a terrestrial hop).
func TestMetricFloorsRouteDifferently(t *testing.T) {
	g := topology.New()
	a_, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.AddTrunkDelay(a_, b, topology.T56, 0.010)
	g.AddTrunkDelay(b, c, topology.T56, 0.010)
	sat, _ := g.AddTrunkDelay(a_, c, topology.S56, 0.260)

	m := traffic.NewMatrix(3)
	m.Set(a_, c, 20000)
	hn := Assign(g, m, func(id topology.LinkID) float64 {
		l := g.Link(id)
		return core.NewModule(l.Type, l.PropDelay).Floor()
	})
	d := Assign(g, m, func(id topology.LinkID) float64 {
		l := g.Link(id)
		return metric.NewDSPF(l.Type, l.PropDelay).Bias()
	})
	if hn.LinkBPS[sat] != 20000 {
		t.Errorf("HN-SPF floors should take the satellite shortcut, got %v bps", hn.LinkBPS[sat])
	}
	if d.LinkBPS[sat] != 0 {
		t.Errorf("D-SPF floors should shun the satellite, got %v bps", d.LinkBPS[sat])
	}
	// §4.4: "decreasing path lengths vis-a-vis those with the delay metric".
	if hn.HopMean >= d.HopMean {
		t.Errorf("HN-SPF hop mean %v should be below D-SPF's %v", hn.HopMean, d.HopMean)
	}
	// The price: the satellite path has higher predicted delay. The metric
	// "will not always result in shortest-delay paths" (§1).
	if hn.DelayMean <= d.DelayMean {
		t.Errorf("satellite path should cost delay: HN %v vs D %v", hn.DelayMean, d.DelayMean)
	}
}

func TestAssignPanics(t *testing.T) {
	g := topology.Ring(3, topology.T56)
	defer func() {
		if recover() == nil {
			t.Error("matrix mismatch should panic")
		}
	}()
	Assign(g, traffic.NewMatrix(5), unit)
}

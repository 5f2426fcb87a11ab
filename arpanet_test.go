package arpanet

import (
	"math"
	"strings"
	"testing"
)

func TestLineKinds(t *testing.T) {
	t.Parallel()
	if T56.String() != "56T" || S9_6.String() != "9.6S" {
		t.Error("LineKind names wrong")
	}
	if T56.BandwidthBPS() != 56000 || !S56.Satellite() || T9_6.Satellite() {
		t.Error("LineKind attributes wrong")
	}
}

func TestMetricNames(t *testing.T) {
	t.Parallel()
	if HNSPF.String() != "HN-SPF" || DSPF.String() != "D-SPF" || MinHop.String() != "min-hop" {
		t.Error("Metric names wrong")
	}
}

func TestLinkMetricLifecycle(t *testing.T) {
	t.Parallel()
	m := NewLinkMetric(T56, 0)
	if m.Ceiling() != 3*HopCost || m.Floor() != HopCost {
		t.Errorf("bounds = [%v, %v], want [30, 90]", m.Floor(), m.Ceiling())
	}
	if m.Cost() != m.Ceiling() {
		t.Error("new link should start at its ceiling (ease-in)")
	}
	for i := 0; i < 20; i++ {
		m.Update(0.011) // ~idle 56k delay
	}
	if m.Cost() != m.Floor() {
		t.Errorf("idle link settled at %v, want floor %v", m.Cost(), m.Floor())
	}
	m.Reset()
	if m.Cost() != m.Ceiling() {
		t.Error("Reset should restore the ceiling")
	}
	// Figure 4/5 curve access.
	if c := m.CostAt(0.3); c != HopCost {
		t.Errorf("CostAt(0.3) = %v, want flat at one hop", c)
	}
	if c := m.CostAt(0.99); c != 3*HopCost {
		t.Errorf("CostAt(0.99) = %v, want the cap", c)
	}
}

func TestTopologyBuilding(t *testing.T) {
	t.Parallel()
	topo := NewTopology()
	topo.AddNode("A")
	topo.AddNode("B")
	topo.AddNode("C")
	topo.AddTrunk("A", "B", T56, 0.005)
	topo.AddTrunk("B", "C", S9_6, -1) // default satellite delay
	if topo.NumNodes() != 3 || topo.NumTrunks() != 2 {
		t.Errorf("counts = %d, %d", topo.NumNodes(), topo.NumTrunks())
	}
	nodes := topo.Nodes()
	if len(nodes) != 3 || nodes[0] != "A" {
		t.Errorf("Nodes = %v", nodes)
	}
	if len(topo.Trunks()) != 2 {
		t.Error("Trunks wrong")
	}
}

func TestCannedTopologies(t *testing.T) {
	t.Parallel()
	if a := Arpanet1987(); a.NumNodes() != 30 || a.NumTrunks() != 44 {
		t.Error("Arpanet1987 shape wrong")
	}
	if len(ArpanetWeights()) != 30 {
		t.Error("ArpanetWeights size wrong")
	}
	if r := Ring(5, T56); r.NumTrunks() != 5 {
		t.Error("Ring wrong")
	}
	if g := Grid(2, 3, T56); g.NumNodes() != 6 {
		t.Error("Grid wrong")
	}
	if tr := TwoRegion(3, T56); tr.NumNodes() != 6 {
		t.Error("TwoRegion wrong")
	}
	if rd := Random(10, 2.5, 1, T56, T9_6); rd.NumNodes() != 10 {
		t.Error("Random wrong")
	}
}

func TestTrafficAPI(t *testing.T) {
	t.Parallel()
	topo := Ring(4, T56)
	tr := topo.UniformTraffic(12000)
	if math.Abs(tr.TotalBPS()-12000) > 1e-9 {
		t.Errorf("TotalBPS = %v", tr.TotalBPS())
	}
	tr.Scale(0.5)
	if math.Abs(tr.TotalBPS()-6000) > 1e-9 {
		t.Errorf("after Scale TotalBPS = %v", tr.TotalBPS())
	}
	manual := topo.NewTraffic()
	manual.SetRate("N0", "N2", 5000)
	if manual.Rate("N0", "N2") != 5000 || manual.Rate("N2", "N0") != 0 {
		t.Error("SetRate/Rate wrong")
	}
	c := manual.Clone()
	c.SetRate("N0", "N2", 1)
	if manual.Rate("N0", "N2") != 5000 {
		t.Error("Clone should be independent")
	}
	g := topo.GravityTraffic(map[string]float64{"N0": 5}, 1000)
	if g.Rate("N0", "N1") <= g.Rate("N2", "N1") {
		t.Error("gravity weights ignored")
	}
	h := topo.HotspotTraffic(func(name string) bool { return name == "N0" || name == "N1" }, 1000, 1.0)
	if h.Rate("N0", "N1") != 0 || h.Rate("N0", "N2") == 0 {
		t.Error("hotspot should only load cross-region pairs at frac=1")
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	topo := Ring(5, T56)
	tr := topo.UniformTraffic(50000)
	s := NewSimulation(topo, tr, SimConfig{Metric: HNSPF, Seed: 1, WarmupSeconds: 20})
	util := s.TrackTrunk("N0", "N1")
	s.RunSeconds(120)
	r := s.Report()
	if r.DeliveredRatio < 0.99 {
		t.Errorf("delivered ratio %.4f", r.DeliveredRatio)
	}
	if !strings.Contains(r.String(), "HN-SPF") {
		t.Error("report should name the metric")
	}
	if util.Len() == 0 {
		t.Error("tracked series should have samples")
	}
	if c := s.TrunkCost("N0", "N1"); c < HopCost || c > 3*HopCost {
		t.Errorf("trunk cost %v out of range", c)
	}
	if s.BufferDrops() != 0 {
		t.Error("no drops expected at light load")
	}
}

func TestSimulationFailRestore(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	topo := Ring(4, T56)
	tr := topo.UniformTraffic(30000)
	s := NewSimulation(topo, tr, SimConfig{Metric: HNSPF, Seed: 2, WarmupSeconds: 10})
	s.FailTrunkAt(30, "N0", "N1")
	s.RestoreTrunkAt(90, "N0", "N1")
	s.RunSeconds(240)
	if r := s.Report(); r.DeliveredRatio < 0.98 {
		t.Errorf("delivered ratio %.4f across fail/restore", r.DeliveredRatio)
	}
}

func TestSimulationPanicsOnMismatchedTraffic(t *testing.T) {
	t.Parallel()
	a, b := Ring(4, T56), Ring(4, T56)
	tr := a.UniformTraffic(1000)
	defer func() {
		if recover() == nil {
			t.Error("mismatched Traffic should panic")
		}
	}()
	NewSimulation(b, tr, SimConfig{})
}

func TestAnalysisEndToEnd(t *testing.T) {
	t.Parallel()
	topo := Arpanet1987()
	tr := topo.GravityTraffic(ArpanetWeights(), 400000)
	a := NewAnalysis(topo, tr)

	if r := a.Response(1); math.Abs(r-1) > 1e-9 {
		t.Errorf("Response(1) = %v", r)
	}
	if a.MeanShedCost() < 2 || a.MeanShedCost() > 6 {
		t.Errorf("MeanShedCost = %v", a.MeanShedCost())
	}
	if a.MaxShedCost() < 4 {
		t.Errorf("MaxShedCost = %v", a.MaxShedCost())
	}
	if len(a.ShedCosts()) == 0 {
		t.Error("no shed stats")
	}
	if s := a.ResponseSeries(5, 1); s.Len() != 5 {
		t.Errorf("ResponseSeries length %d", s.Len())
	}

	// Figure 10 ordering through the public API.
	_, uh := a.Equilibrium(HNSPF, T56, 1.5)
	_, ud := a.Equilibrium(DSPF, T56, 1.5)
	if uh <= ud {
		t.Errorf("HN-SPF equilibrium %v should beat D-SPF %v", uh, ud)
	}
	if sw := a.EquilibriumSweep(HNSPF, T56, 2, 0.5); sw.Len() != 4 {
		t.Errorf("sweep length %d", sw.Len())
	}

	// Cobweb dynamics through the public API.
	dTrace := a.Cobweb(DSPF, T56, 1.0, 8, 40)
	hTrace := a.Cobweb(HNSPF, T56, 1.0, 3, 40)
	if CobwebAmplitude(dTrace) <= CobwebAmplitude(hTrace) {
		t.Errorf("D-SPF amplitude %v should exceed HN-SPF %v",
			CobwebAmplitude(dTrace), CobwebAmplitude(hTrace))
	}
}

func TestMetricCurve(t *testing.T) {
	t.Parallel()
	// Figure 4: at 90% utilization D-SPF is ~10× idle, HN-SPF ≤ 3.
	d := MetricCurve(DSPF, T56, 0, 0.9)
	h := MetricCurve(HNSPF, T56, 0, 0.9)
	if d < 9 || h > 3.01 {
		t.Errorf("curves at 90%%: D-SPF %v (want ~10), HN-SPF %v (want <= 3)", d, h)
	}
	if MetricCurve(MinHop, T56, 0, 0.9) != 1 {
		t.Error("min-hop curve should be 1")
	}
	// Figure 5: satellite floor above terrestrial, same ceiling.
	st := MetricCurve(HNSPF, S56, 0.260, 0)
	te := MetricCurve(HNSPF, T56, 0, 0)
	if st <= te || st > 2*te {
		t.Errorf("idle satellite %v vs terrestrial %v: want (1, 2]× ratio", st, te)
	}
}

// TestDeterministicSimulation runs each configuration four times in one
// process and wants the same Report every time. Go randomises map iteration
// per range statement and seeds the global math/rand stream per process, so a
// wall-clock read, a global draw or a map order that reaches the report makes
// a later run differ from run 1, whichever line leaked it.
func TestDeterministicSimulation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const runs = 4
	for _, tc := range []struct {
		name    string
		build   func() (*Topology, *Traffic)
		cfg     SimConfig
		seconds float64
	}{
		{
			// The ARPANET map under D-SPF: delay measurement, flooding, SPF.
			name: "arpanet-dspf",
			build: func() (*Topology, *Traffic) {
				topo := Arpanet1987()
				return topo, topo.GravityTraffic(ArpanetWeights(), 200000)
			},
			cfg:     SimConfig{Metric: DSPF, Seed: 42, WarmupSeconds: 20},
			seconds: 80,
		},
		{
			// Multipath on a 2×2 grid: opposite corners are two equal-cost
			// hops apart, so their packets draw one of two first hops. No
			// golden trace reaches that draw.
			name: "grid-multipath",
			build: func() (*Topology, *Traffic) {
				topo := Grid(2, 2, T56)
				return topo, topo.UniformTraffic(40000)
			},
			cfg:     SimConfig{Metric: MinHop, Seed: 5, WarmupSeconds: 30, Multipath: true},
			seconds: 120,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func() Report {
				topo, tr := tc.build()
				s := NewSimulation(topo, tr, tc.cfg)
				s.RunSeconds(tc.seconds)
				return s.Report()
			}
			first := run()
			for i := 2; i <= runs; i++ {
				if r := run(); r != first {
					t.Fatalf("nondeterministic: run %d differs from run 1:\n  run 1: %#v\n  run %d: %#v", i, first, i, r)
				}
			}
		})
	}
}

func TestResponseSpreadAPI(t *testing.T) {
	t.Parallel()
	topo := Arpanet1987()
	a := NewAnalysis(topo, topo.GravityTraffic(ArpanetWeights(), 400000))
	mean, sd, min, max := a.ResponseSpread(2)
	if mean <= 0 || mean >= 1 {
		t.Errorf("mean = %v, want in (0,1)", mean)
	}
	if sd <= 0 {
		t.Error("per-link responses should disperse (§5.2)")
	}
	if min < 0 || max > 1 || min > max {
		t.Errorf("bounds [%v, %v] invalid", min, max)
	}
}

func TestBF1969PublicAPI(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	if BF1969.String() != "Bellman-Ford 1969" {
		t.Errorf("name = %q", BF1969.String())
	}
	topo := Ring(5, T56)
	s := NewSimulation(topo, topo.UniformTraffic(40000), SimConfig{
		Metric: BF1969, Seed: 6, WarmupSeconds: 20,
	})
	s.RunSeconds(120)
	if r := s.Report(); r.DeliveredRatio < 0.98 {
		t.Errorf("BF1969 delivered %.3f at light load", r.DeliveredRatio)
	}
	// Analysis rejects it with a clear message.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MetricCurve(BF1969) should panic")
			}
		}()
		MetricCurve(BF1969, T56, 0, 0.5)
	}()
	// So does multipath.
	defer func() {
		if recover() == nil {
			t.Error("Multipath with BF1969 should panic")
		}
	}()
	NewSimulation(topo, topo.UniformTraffic(1000), SimConfig{Metric: BF1969, Multipath: true})
}

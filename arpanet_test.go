package arpanet

import (
	"math"
	"reflect"
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

// mustRun is Run for tests and benchmarks: a setup error fails tb.
func mustRun(tb testing.TB, s Spec) Result {
	tb.Helper()
	r, err := Run(s)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestSimulationEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	topo := Ring(5, T56)
	res := mustRun(t, Spec{
		Topology: topo, Traffic: topo.UniformTraffic(50000),
		Metric: HNSPF, Seed: 1, WarmupSeconds: 20, Seconds: 120,
		Track: [][2]string{{"N0", "N1"}},
	})
	r := res.Report
	if r.DeliveredRatio < 0.99 {
		t.Errorf("delivered ratio %.4f", r.DeliveredRatio)
	}
	if !strings.Contains(r.String(), "HN-SPF") {
		t.Error("report should name the metric")
	}
	util, cost := res.Tracked[0].Utilization, res.Tracked[0].Cost
	if util.Len() == 0 || cost.Len() != util.Len() {
		t.Errorf("tracked series have %d and %d samples", util.Len(), cost.Len())
	}
	if c := cost.Y[cost.Len()-1]; c < HopCost || c > 3*HopCost {
		t.Errorf("trunk cost %v out of range", c)
	}
	if r.BufferDrops != 0 {
		t.Error("no drops expected at light load")
	}
	if len(res.Violations) != 0 || len(res.Checkpoints) != 1 {
		t.Errorf("end-of-run audit: %d checkpoints, violations %v", len(res.Checkpoints), res.Violations)
	}
}

func TestSimulationFailRestore(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	topo := Ring(4, T56)
	res := mustRun(t, Spec{
		Topology: topo, Traffic: topo.UniformTraffic(30000),
		Metric: HNSPF, Seed: 2, WarmupSeconds: 10,
		Script: "duration 240\nat 30 down N0 N1\nat 90 up N0 N1\n",
	})
	if r := res.Report; r.DeliveredRatio < 0.98 {
		t.Errorf("delivered ratio %.4f across fail/restore", r.DeliveredRatio)
	}
}

// Traffic built on another topology is refused by Run, naming Spec.Traffic.
func TestSimulationPanicsOnMismatchedTraffic(t *testing.T) {
	t.Parallel()
	a, b := Ring(4, T56), Ring(4, T56)
	_, err := Run(Spec{Topology: b, Traffic: a.UniformTraffic(1000), Seconds: 60})
	if err == nil || !strings.Contains(err.Error(), "Spec.Traffic") {
		t.Errorf("Run: err = %v, want one naming Spec.Traffic", err)
	}
}

// Bad input to Run is an error that names the Spec field at fault, never a
// panic, and nothing runs.
func TestRunRejectsBadSpecs(t *testing.T) {
	t.Parallel()
	ring, other := Ring(4, T56), Ring(4, T56)
	for _, tc := range []struct {
		name  string
		spec  func(*Spec)
		field string // the error must name it
	}{
		{"no traffic", func(s *Spec) { s.Traffic = nil }, "Spec.Traffic"},
		{"no topology", func(s *Spec) { s.Topology = nil }, "Spec.Topology"},
		{"background from another topology", func(s *Spec) { s.Background = other.UniformTraffic(1000) }, "Spec.Background"},
		{"multipath with BF-1969", func(s *Spec) { s.Metric, s.Multipath = BF1969, true }, "Spec.Multipath"},
		{"unknown metric", func(s *Spec) { s.Metric = BF1969 + 1 }, "Spec.Metric"},
		{"unknown PSN tracked", func(s *Spec) { s.Track = [][2]string{{"N0", "X9"}} }, `Spec.Track: no trunk joins PSNs "N0" and "X9"`},
		{"no trunk tracked", func(s *Spec) { s.Track = [][2]string{{"N0", "N2"}} }, `Spec.Track: no trunk joins PSNs "N0" and "N2"`},
		{"unknown PSN scripted", func(s *Spec) { s.Seconds, s.Script = 0, "duration 60\nat 10 down N0 X9\n" }, `Spec.Script: scenario "scenario": down at 10.000000s: unknown node "X9"`},
		{"fault at a negative time", func(s *Spec) { s.Seconds, s.Script = 0, "duration 60\nat -5 down N0 N1\n" }, "Spec.Script: line 2"},
		{"script without a duration", func(s *Spec) { s.Seconds, s.Script = 0, "at 5 down N0 N1\n" }, "Spec.Script"},
		{"script and seconds", func(s *Spec) { s.Script = "duration 60\n" }, "Spec.Seconds"},
		{"no horizon", func(s *Spec) { s.Seconds = 0 }, "Spec.Seconds"},
		{"negative warm-up", func(s *Spec) { s.WarmupSeconds = -1 }, "Spec.WarmupSeconds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Spec{Topology: ring, Traffic: ring.UniformTraffic(1000), Seconds: 60}
			tc.spec(&s)
			_, err := Run(s)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("Run: err = %v, want one naming %s", err, tc.field)
			}
		})
	}
	s := Spec{Topology: ring, Traffic: ring.UniformTraffic(1000), Seconds: 60, Track: [][2]string{{"N0", "N1"}}}
	if _, err := RunSeeds(s, 2); err == nil || !strings.Contains(err.Error(), "Spec.Track") {
		t.Errorf("RunSeeds with Track: err = %v, want one naming Spec.Track", err)
	}
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
		name  string
		build func() (*Topology, *Traffic)
		spec  Spec
	}{
		{
			// The ARPANET map under D-SPF: delay measurement, flooding, SPF.
			name: "arpanet-dspf",
			build: func() (*Topology, *Traffic) {
				topo := Arpanet1987()
				return topo, topo.GravityTraffic(ArpanetWeights(), 200000)
			},
			spec: Spec{Metric: DSPF, Seed: 42, WarmupSeconds: 20, Seconds: 80},
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
			spec: Spec{Metric: MinHop, Seed: 5, WarmupSeconds: 30, Seconds: 120, Multipath: true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func() Report {
				s := tc.spec
				s.Topology, s.Traffic = tc.build()
				return mustRun(t, s).Report
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
	res := mustRun(t, Spec{
		Topology: topo, Traffic: topo.UniformTraffic(40000),
		Metric: BF1969, Seed: 6, WarmupSeconds: 20, Seconds: 120,
	})
	if r := res.Report; r.DeliveredRatio < 0.98 {
		t.Errorf("BF1969 delivered %.3f at light load", r.DeliveredRatio)
	}
	// Analysis rejects it with a clear message.
	defer func() {
		if recover() == nil {
			t.Error("MetricCurve(BF1969) should panic")
		}
	}()
	MetricCurve(BF1969, T56, 0, 0.5)
}

// The benchmark's entry point is a shell over Run: the same Report and the
// same event log.
func TestSimulationShellIsRun(t *testing.T) {
	t.Parallel()
	topo := Ring(4, T56)
	tr := topo.UniformTraffic(20000)
	s := NewSimulation(topo, tr, SimConfig{Metric: DSPF, Seed: 3, WarmupSeconds: 10, TraceCapacity: 100})
	s.RunSeconds(60)
	res := mustRun(t, Spec{Topology: topo, Traffic: tr, Metric: DSPF, Seed: 3, WarmupSeconds: 10, Seconds: 60, TraceCapacity: 100})
	if s.Report() != res.Report || s.Trace().Len() == 0 || !reflect.DeepEqual(s.Trace().Events(), res.Trace.Events()) {
		t.Errorf("Simulation:\n  %+v\nRun:\n  %+v", s.Report(), res.Report)
	}
}

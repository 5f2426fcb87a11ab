package arpanet

import (
	"fmt"
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
	ring := Ring(4, T56)
	for _, tc := range []struct {
		name  string
		spec  func(*Spec)
		field string // the error must name it
	}{
		{"no traffic", func(s *Spec) { s.Traffic = nil }, "Spec.Traffic"},
		{"no topology", func(s *Spec) { s.Topology = nil }, "Spec.Topology"},
		{"multipath with BF-1969", func(s *Spec) { s.Metric, s.Multipath = BF1969, true }, "Spec.Multipath"},
		{"unknown metric", func(s *Spec) { s.Metric = BF1969 + 1 }, "Spec.Metric"},
		{"unknown PSN tracked", func(s *Spec) { s.Track = [][2]string{{"N0", "X9"}} }, `Spec.Track: no trunk joins PSNs "N0" and "X9"`},
		{"no trunk tracked", func(s *Spec) { s.Track = [][2]string{{"N0", "N2"}} }, `Spec.Track: no trunk joins PSNs "N0" and "N2"`},
		{"unknown PSN scripted", func(s *Spec) { s.Seconds, s.Script = 0, "duration 60\nat 10 down N0 X9\n" }, `Spec.Script: scenario "scenario": down at 10.000000s: unknown node "X9"`},
		{"fluid background scripted", func(s *Spec) { s.Seconds, s.Script = 0, "duration 60\nat 10 surge background 2\n" }, `Spec.Script: scenario "scenario": surge background at 10.000000s requires a background matrix`},
		{"fault at a negative time", func(s *Spec) { s.Seconds, s.Script = 0, "duration 60\nat -5 down N0 N1\n" }, "Spec.Script: line 2"},
		{"script without a duration", func(s *Spec) { s.Seconds, s.Script = 0, "at 5 down N0 N1\n" }, "Spec.Script"},
		{"script and seconds", func(s *Spec) { s.Script = "duration 60\n" }, "Spec.Seconds"},
		{"no horizon", func(s *Spec) { s.Seconds = 0 }, "Spec.Seconds"},
		{"infinite horizon", func(s *Spec) { s.Seconds = math.Inf(1) }, "Spec.Seconds"},
		{"horizon past the clock", func(s *Spec) { s.Seconds = 1e300 }, "Spec.Seconds"},
		{"infinite traffic", func(s *Spec) { s.Traffic.SetRate("N0", "N1", math.Inf(1)) }, "Spec.Traffic"},
		{"negative warm-up", func(s *Spec) { s.WarmupSeconds = -1 }, "Spec.WarmupSeconds"},
		{"warm-up past the horizon", func(s *Spec) { s.WarmupSeconds = 100 }, "Spec.Seconds 60 ends within Spec.WarmupSeconds 100"},
		{"warm-up to the horizon", func(s *Spec) { s.WarmupSeconds = 60 }, "Spec.Seconds 60 ends within Spec.WarmupSeconds 60"},
		{"warm-up past the script", func(s *Spec) { s.Seconds, s.Script, s.WarmupSeconds = 0, "duration 60\n", 80 },
			"Spec.Script's duration 60 ends within Spec.WarmupSeconds 80"},
		{"both traffics", func(s *Spec) { s.NodeTraffic = &NodeTraffic{Rate: 1, Dests: 3} }, "exactly one of Spec.Traffic and Spec.NodeTraffic"},
		{"no packet rate", func(s *Spec) { s.Traffic, s.NodeTraffic = nil, &NodeTraffic{Dests: 3} }, "Spec.NodeTraffic {Rate:0 Dests:3 Radius:0}"},
		{"infinite packet rate", func(s *Spec) { s.Traffic, s.NodeTraffic = nil, &NodeTraffic{Rate: math.Inf(1), Dests: 3} }, "Spec.NodeTraffic {Rate:+Inf Dests:3 Radius:0}"},
		{"no destinations", func(s *Spec) { s.Traffic, s.NodeTraffic, s.Shards = nil, &NodeTraffic{Rate: 1}, 2 }, "Spec.NodeTraffic {Rate:1 Dests:0 Radius:0}"},
		{"negative radius", func(s *Spec) { s.Traffic, s.NodeTraffic = nil, &NodeTraffic{Rate: 1, Dests: 3, Radius: -1} }, "Spec.NodeTraffic {Rate:1 Dests:3 Radius:-1}"},
		{"more shards than PSNs", func(s *Spec) { s.Traffic, s.NodeTraffic, s.Shards = nil, &NodeTraffic{Rate: 1, Dests: 3}, 5 }, "Spec.Shards 5"},
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "Spec.Shards -1"},
		{"static multipath", func(s *Spec) { sharded(s); s.StaticRoutes, s.Multipath = true, true }, "Spec.Multipath has no effect on Spec.StaticRoutes"},
		{"sharded unknown PSN tracked", func(s *Spec) { sharded(s); s.Track = [][2]string{{"N0", "X9"}} }, `Spec.Track: no trunk joins PSNs "N0" and "X9"`},
		{"negative trace capacity", func(s *Spec) { s.TraceCapacity = -1 }, "Spec.TraceCapacity -1"},
		{"static routes scripted on one shard", func(s *Spec) { s.Seconds, s.Script, s.StaticRoutes = 0, "duration 60\n", true }, "Spec.StaticRoutes runs no Spec.Script"},
		{"static routes scripted", func(s *Spec) { sharded(s); s.Seconds, s.Script, s.StaticRoutes = 0, "duration 60\n", true }, "runs no Spec.Script"},
		{"static routes with a metric", func(s *Spec) { sharded(s); s.StaticRoutes, s.Metric = true, DSPF }, "Spec.Metric D-SPF has no effect on Spec.StaticRoutes"},
		{"static routes ablated", func(s *Spec) { sharded(s); s.StaticRoutes, s.Ablations = true, []HNMOption{HNMWithoutAveraging()} }, "Spec.Ablations have no effect on Spec.StaticRoutes"},
		{"sharded unknown PSN scripted", func(s *Spec) { sharded(s); s.Seconds, s.Script = 0, "duration 60\nat 10 down N0 X9\n" }, `Spec.Script: scenario "scenario": down at 10.000000s: unknown node "X9"`},
		{"sharded fluid background scripted", func(s *Spec) { sharded(s); s.Seconds, s.Script = 0, "duration 60\nat 10 surge background 2\n" }, "Spec.Script: scenario \"scenario\": surge background at 10.000000s requires a background matrix (hybrid mode)"},
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
	s = Spec{Topology: ring, Traffic: ring.UniformTraffic(1000), Seconds: 1e300}
	if _, err := RunSeeds(s, 2); err == nil || !strings.Contains(err.Error(), "Spec.Seconds") {
		t.Errorf("RunSeeds with a horizon past the clock: err = %v, want one naming Spec.Seconds", err)
	}
	s = Spec{Topology: ring, Seconds: 60}
	sharded(&s) // destinations drawn from Seed alone would not be Seed+1's, at any shard count
	for _, shards := range []int{0, 2} {
		s.Shards = shards
		if _, err := RunSeeds(s, 2); err == nil || !strings.Contains(err.Error(), "Spec.NodeTraffic") {
			t.Errorf("RunSeeds with NodeTraffic at Shards %d: err = %v, want one naming Spec.NodeTraffic", shards, err)
		}
	}
}

// RunSeeds takes Shards with a matrix Traffic, the same for every seed, and
// returns each seed's result at two shards as at one.
func TestRunSeedsOnEitherEngine(t *testing.T) {
	t.Parallel()
	ring := Ring(5, T56)
	var want string
	for _, shards := range []int{0, 2} {
		rs, err := RunSeeds(Spec{Topology: ring, Traffic: ring.UniformTraffic(40_000), Seed: 1, WarmupSeconds: 10,
			Script: "duration 40\nat 20 restart N2 for 5\n", Shards: shards}, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s%+v\n%s%+v", rs[0].Report, rs[0].Checkpoints, rs[1].Report, rs[1].Checkpoints)
		if rs[0].Seed != 1 || rs[1].Seed != 2 || rs[0].Report.String() == rs[1].Report.String() {
			t.Errorf("Shards %d: seeds %d and %d, reports\n%s", shards, rs[0].Seed, rs[1].Seed, got)
		}
		if shards == 0 {
			want = got
		} else if got != want {
			t.Errorf("Shards %d rendered\n%s\nShards 0 rendered\n%s", shards, got, want)
		}
	}
}

// sharded turns s to per-node traffic on the two-shard engine.
func sharded(s *Spec) {
	s.Traffic, s.NodeTraffic, s.Shards = nil, &NodeTraffic{Rate: 1, Dests: 3}, 2
}

// RunSeeds refuses by name, before it allocates, a seed count below one,
// one whose seeds leave int64 and one whose results no allocation can hold,
// instead of panicking on its result slice's length or returning no result
// and no error for zero.
func TestRunSeedsRejectsBadCounts(t *testing.T) {
	t.Parallel()
	ring := Ring(4, T56)
	s := Spec{Topology: ring, Traffic: ring.UniformTraffic(1000), Seconds: 60}
	for _, tc := range []struct {
		seed int64
		n    int
		want string
	}{
		{0, -1, "not a seed count"},
		{0, 0, "not a seed count"},
		{1987, math.MaxInt, "leave int64"},
		{math.MaxInt64, 2, "leave int64"},
		{1, math.MaxInt, "no allocation holds"}, // the last seed is MaxInt64
		{math.MinInt64, math.MaxInt / 2, "no allocation holds"},
	} {
		s.Seed = tc.seed
		rs, err := RunSeeds(s, tc.n)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("RunSeeds n %d", tc.n)) ||
			!strings.Contains(err.Error(), tc.want) || rs != nil {
			t.Errorf("RunSeeds(Seed %d, %d) = %d results, %v; want an error naming n and %q", tc.seed, tc.n, len(rs), err, tc.want)
		}
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
		{
			// HN-SPF on a 4×4 grid of alike trunks, where trunks tie often:
			// copies of one flood sent on alike lines finish at one instant,
			// and duplicates reach a PSN together over equal-hop paths, so
			// the order a PSN puts its copies on its lines reaches output.
			name: "grid-ties",
			build: func() (*Topology, *Traffic) {
				topo := Grid(4, 4, T56)
				return topo, topo.UniformTraffic(300000)
			},
			spec: Spec{Metric: HNSPF, Seed: 9, WarmupSeconds: 20, Seconds: 80},
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

package equilibrium

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

func arpanetModel() *Model {
	g := topology.Arpanet()
	m := traffic.Gravity(g, topology.ArpanetWeights(), 400000)
	return New(g, m)
}

var cachedModel *Model

func model() *Model {
	if cachedModel == nil {
		cachedModel = arpanetModel()
	}
	return cachedModel
}

func TestResponseMapShape(t *testing.T) {
	mo := model()
	// Normalized: ambient cost traffic is 1.
	if r := mo.Response(1); math.Abs(r-1) > 1e-9 {
		t.Errorf("Response(1) = %v, want 1", r)
	}
	// Monotone non-increasing.
	prev := 2.0
	for w := 1.0; w <= 10; w += 0.25 {
		r := mo.Response(w)
		if r > prev+1e-12 {
			t.Errorf("response map not monotone at w=%v", w)
		}
		prev = r
	}
	// §5.2: "If the link reports a cost of 4, then over 90% of its base
	// traffic will be shed." Exact value is topology-dependent; the shape
	// requirement is that most traffic is gone by 4 hops.
	r4 := mo.Response(4)
	t.Logf("Response(4) = %.3f", r4)
	if r4 > 0.35 {
		t.Errorf("Response(4) = %.3f, want most traffic shed by cost 4", r4)
	}
	// Epsilon problem (§5.2): a small change around ambient sheds a lot.
	drop := mo.Response(1) - mo.Response(1.5)
	t.Logf("Response(1) - Response(1.5) = %.3f", drop)
	if drop < 0.15 {
		t.Errorf("tie-flip should shed a large fraction, got %.3f", drop)
	}
	// Beyond the max shed cost the link is bare.
	if r := mo.Response(mo.MaxShedCost() + 1); r != 0 {
		t.Errorf("Response beyond max shed cost = %v, want 0", r)
	}
}

func TestShedCostStats(t *testing.T) {
	mo := model()
	sheds := mo.ShedCosts()
	if len(sheds) == 0 {
		t.Fatal("no shed statistics")
	}
	// Figure 7's shape: short routes need large costs to shed; long routes
	// shed with slightly-longer alternates. Mean shed cost must decrease
	// (weakly) from 1-hop routes to the longest routes.
	first, last := sheds[0], sheds[len(sheds)-1]
	t.Logf("shed stats: %+v ... %+v, overall mean %.2f, max %.1f",
		first, last, mo.MeanShedCost(), mo.MaxShedCost())
	if first.RouteLength != 1 {
		t.Errorf("shortest route length = %d, want 1", first.RouteLength)
	}
	if first.Mean <= last.Mean {
		t.Errorf("1-hop routes (mean shed %.2f) should be stickier than %d-hop routes (%.2f)",
			first.Mean, last.RouteLength, last.Mean)
	}
	// "in the case of a one-hop route, the maximum reported cost needed to
	// shed the route is eight hops" — ours should be in the same regime
	// (alternate paths only a few hops longer).
	if first.Max < 4 || first.Max > 12 {
		t.Errorf("max shed cost for 1-hop routes = %.1f, want ~8 (4-12)", first.Max)
	}
	// "The average reported cost needed to shed all routes is four hops."
	if m := mo.MeanShedCost(); m < 2 || m > 6 {
		t.Errorf("mean shed cost = %.2f, want ~4 (2-6)", m)
	}
	for _, s := range sheds {
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Errorf("inconsistent stats at length %d: %+v", s.RouteLength, s)
		}
		if s.Count <= 0 {
			t.Errorf("empty bucket emitted: %+v", s)
		}
	}
}

func TestMetricMaps(t *testing.T) {
	hn := HNSPFMap(topology.T56, 0)
	d := DSPFMap(topology.T56, 0)
	mh := MinHopMap()

	// Idle: every map reports one hop.
	if math.Abs(hn(0)-1) > 1e-9 || math.Abs(d(0)-1) > 1e-9 || mh(0) != 1 {
		t.Errorf("idle costs = %v, %v, %v; want 1 each", hn(0), d(0), mh(0))
	}
	// HN-SPF is capped at 3 hops; D-SPF reaches 20 (Figure 4's contrast).
	if got := hn(0.99); math.Abs(got-3) > 1e-9 {
		t.Errorf("HN-SPF cap = %v hops, want 3", got)
	}
	if got := d(0.99); math.Abs(got-20) > 1e-6 {
		t.Errorf("D-SPF cap = %v hops, want 20", got)
	}
	// At 75%: D-SPF 4 hops, HN-SPF 2 (§5.2's worked example).
	if got := d(0.75); math.Abs(got-4) > 1e-9 {
		t.Errorf("D-SPF at 75%% = %v, want 4", got)
	}
	if got := hn(0.75); math.Abs(got-2) > 0.3 {
		t.Errorf("HN-SPF at 75%% = %v, want ~2", got)
	}
	// Min-hop never moves.
	if mh(0.999) != 1 {
		t.Error("min-hop map must be constant")
	}
}

func TestEquilibriumLightLoad(t *testing.T) {
	mo := model()
	// At low offered load HN-SPF and min-hop sit at ambient cost with
	// utilization = offered ("HN-SPF ... acts like min-hop until the link
	// utilization exceeds 50%").
	for _, m := range []MetricMap{HNSPFMap(topology.T56, 0), MinHopMap()} {
		cost, u := mo.Equilibrium(m, 0.2)
		if math.Abs(cost-1) > 0.05 {
			t.Errorf("light-load equilibrium cost = %v, want 1", cost)
		}
		if math.Abs(u-0.2) > 0.02 {
			t.Errorf("light-load equilibrium utilization = %v, want 0.2", u)
		}
	}
	// D-SPF reports above ambient as soon as there is any queueing, so it
	// loses tie-break routes even at light load (the epsilon problem,
	// §5.2) — slightly below ideal but in the same regime.
	cost, u := mo.Equilibrium(DSPFMap(topology.T56, 0), 0.2)
	t.Logf("light-load D-SPF equilibrium: cost %.3f, util %.3f", cost, u)
	if cost < 1 || cost > 1.6 {
		t.Errorf("light-load D-SPF cost = %v, want slightly above 1", cost)
	}
	if u < 0.1 || u > 0.21 {
		t.Errorf("light-load D-SPF utilization = %v, want in (0.1, 0.2]", u)
	}
}

func TestEquilibriumOrderingFigure10(t *testing.T) {
	mo := model()
	hn := HNSPFMap(topology.T56, 0)
	d := DSPFMap(topology.T56, 0)
	for _, f := range []float64{0.8, 1.0, 1.5, 2.0, 3.0} {
		_, uh := mo.Equilibrium(hn, f)
		_, ud := mo.Equilibrium(d, f)
		um := f
		if um > 1 {
			um = 1
		}
		t.Logf("offered %.1f: min-hop %.3f, HN-SPF %.3f, D-SPF %.3f", f, um, uh, ud)
		// Figure 10: HN-SPF sustains higher utilization than D-SPF,
		// especially under high loads, and lies between min-hop and D-SPF.
		if uh < ud-1e-6 {
			t.Errorf("offered %.1f: HN-SPF utilization %.3f below D-SPF %.3f", f, uh, ud)
		}
		if uh > um+1e-6 {
			t.Errorf("offered %.1f: HN-SPF utilization %.3f above min-hop %.3f", f, uh, um)
		}
	}
	// The gap must be substantial under overload.
	_, uh := mo.Equilibrium(hn, 2.0)
	_, ud := mo.Equilibrium(d, 2.0)
	if uh-ud < 0.1 {
		t.Errorf("overload gap HN-SPF %.3f vs D-SPF %.3f too small", uh, ud)
	}
}

func TestEquilibriumSweepMonotone(t *testing.T) {
	mo := model()
	s := mo.EquilibriumSweep("hn", HNSPFMap(topology.T56, 0), 3.0, 0.25)
	if s.Len() != 12 {
		t.Fatalf("sweep length = %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1]-0.02 {
			t.Errorf("equilibrium utilization should not fall as load rises (at %v)", s.X[i])
		}
	}
}

func TestCobwebDSPFMetaStable(t *testing.T) {
	mo := model()
	d := DSPFMap(topology.T56, 0)
	eqCost, _ := mo.Equilibrium(d, 1.0)

	// Figure 11: starting at the equilibrium point stays at it...
	near := mo.Cobweb(d, 1.0, eqCost, 40, CobwebOptions{})
	nearAmp := Amplitude(near)
	// ...while starting far away oscillates between extremes.
	far := mo.Cobweb(d, 1.0, 8, 40, CobwebOptions{})
	farAmp := Amplitude(far)
	t.Logf("D-SPF cobweb: near-equilibrium amplitude %.2f, perturbed %.2f", nearAmp, farAmp)
	if farAmp < 2 {
		t.Errorf("perturbed D-SPF should oscillate widely, amplitude %.2f", farAmp)
	}
	if farAmp < 3*nearAmp && nearAmp > 0.5 {
		t.Errorf("perturbation should matter: near %.2f vs far %.2f", nearAmp, farAmp)
	}
}

func TestCobwebHNSPFBounded(t *testing.T) {
	mo := model()
	hn := HNSPFMap(topology.T56, 0)
	opts := CobwebOptions{Averaging: true, LimitUp: 17.0 / 30, LimitDown: 15.0 / 30}

	// Figure 12: HN-SPF oscillates around equilibrium with bounded
	// amplitude even from a bad start.
	trace := mo.Cobweb(hn, 1.0, 3, 60, opts)
	amp := Amplitude(trace)
	d := DSPFMap(topology.T56, 0)
	dAmp := Amplitude(mo.Cobweb(d, 1.0, 8, 60, CobwebOptions{}))
	t.Logf("HN-SPF amplitude %.2f vs D-SPF %.2f", amp, dAmp)
	if amp > 1.2 {
		t.Errorf("HN-SPF oscillation amplitude %.2f exceeds ~2 movement limits", amp)
	}
	if amp >= dAmp {
		t.Errorf("HN-SPF amplitude %.2f should be below D-SPF's %.2f", amp, dAmp)
	}
	// Costs stay within the metric's [1, 3] range.
	for _, p := range trace {
		if p.Cost < 1-1e-9 || p.Cost > 3+1e-9 {
			t.Errorf("cost %v outside [1,3] at period %d", p.Cost, p.Period)
		}
	}
}

func TestCobwebEaseIn(t *testing.T) {
	// Figure 12's "easing in a new link": starting at max cost under light
	// load, the cost walks down by at most LimitDown per period.
	mo := model()
	hn := HNSPFMap(topology.T56, 0)
	opts := CobwebOptions{Averaging: true, LimitUp: 17.0 / 30, LimitDown: 15.0 / 30}
	trace := mo.Cobweb(hn, 0.3, 3, 20, opts)
	for i := 1; i < len(trace); i++ {
		fall := trace[i-1].Cost - trace[i].Cost
		if fall > opts.LimitDown+1e-9 {
			t.Errorf("period %d: cost fell %.3f, limit %.3f", i, fall, opts.LimitDown)
		}
	}
	if final := trace[len(trace)-1].Cost; math.Abs(final-1) > 0.2 {
		t.Errorf("final eased-in cost = %.2f, want ~1", final)
	}
}

func TestCobwebPanics(t *testing.T) {
	mo := model()
	defer func() {
		if recover() == nil {
			t.Error("negative steps should panic")
		}
	}()
	mo.Cobweb(MinHopMap(), 1, 1, -1, CobwebOptions{})
}

func TestModelValidation(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	defer func() {
		if recover() == nil {
			t.Error("matrix mismatch should panic")
		}
	}()
	New(g, traffic.NewMatrix(7))
}

func TestResponseSeries(t *testing.T) {
	mo := model()
	s := mo.ResponseSeries(5, 0.5)
	if s.Len() != 9 {
		t.Errorf("series length = %d, want 9", s.Len())
	}
	if math.Abs(s.Y[0]-1) > 1e-9 {
		t.Errorf("first point = %v, want 1", s.Y[0])
	}
}

func TestBaseTraffic(t *testing.T) {
	mo := model()
	if mo.allBase <= 0 {
		t.Error("total base traffic should be positive")
	}
	any := false
	for l := 0; l < len(mo.base); l++ {
		if mo.BaseTraffic(topology.LinkID(l)) > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no link carries base traffic")
	}
}

func TestLinkResponse(t *testing.T) {
	mo := model()
	// Every loaded link keeps all its traffic at ambient cost.
	for l := 0; l < len(mo.base); l++ {
		lid := topology.LinkID(l)
		if mo.BaseTraffic(lid) == 0 {
			if mo.LinkResponse(lid, 1) != 0 {
				t.Fatalf("link %d has no base traffic but nonzero response", l)
			}
			continue
		}
		if r := mo.LinkResponse(lid, 1); math.Abs(r-1) > 1e-9 {
			t.Errorf("link %d Response(1) = %v, want 1", l, r)
		}
		// Monotone per link too.
		prev := 2.0
		for w := 1.0; w <= 9; w += 0.5 {
			r := mo.LinkResponse(lid, w)
			if r > prev+1e-12 {
				t.Fatalf("link %d response not monotone at w=%v", l, w)
			}
			prev = r
		}
	}
}

func TestResponseSpread(t *testing.T) {
	mo := model()
	// §5.2: individual links differ from the average link. At cost 2 the
	// per-link responses should show real dispersion.
	spread := mo.ResponseSpread(2)
	t.Logf("per-link response at cost 2: %v", &spread)
	if spread.N() == 0 {
		t.Fatal("no loaded links")
	}
	if spread.StdDev() < 0.05 {
		t.Errorf("per-link spread %.3f suspiciously small — all links identical?", spread.StdDev())
	}
	// The mean of per-link responses is in the same regime as the
	// traffic-weighted average map (they weight links differently).
	if d := math.Abs(spread.Mean() - mo.Response(2)); d > 0.25 {
		t.Errorf("per-link mean %.3f far from aggregate response %.3f", spread.Mean(), mo.Response(2))
	}
}

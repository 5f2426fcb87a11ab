package arpanet

// Ablation experiments: re-run the Figure 1 oscillation scenario with one
// HNM stabilization mechanism disabled at a time, demonstrating what each
// buys (§4.3, §5.4). The benchmarks report the oscillation swing and
// routing-update rate as benchmark metrics.

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// ablationRun drives the two-region scenario with the given HNM options
// and returns the trunk-difference swing (oscillation measure) and the
// routing updates per trunk per second.
func ablationRun(tb testing.TB, seed int64, opts ...HNMOption) (swing float64, updates float64, rep Report) {
	topo := TwoRegion(5, T56)
	// Heavier than the Figure 1 test: the balanced split sits at ~61% per
	// trunk, inside the metric's ramp, so the stabilization mechanisms are
	// actually exercised.
	tr := topo.HotspotTraffic(func(n string) bool {
		return strings.HasPrefix(n, "W")
	}, 170_000, 0.80)
	res := mustRun(tb, Spec{
		Topology: topo, Traffic: tr,
		Metric: HNSPF, Seed: seed, WarmupSeconds: 100, Seconds: 700, Ablations: opts,
		Track: [][2]string{{"W0", "E0"}, {"W1", "E1"}},
	})
	a, b := res.Tracked[0].Utilization, res.Tracked[1].Utilization
	var w stats.Welford
	for i := 0; i < a.Len() && i < b.Len(); i++ {
		w.Add(a.Y[i] - b.Y[i])
	}
	rep = res.Report
	return w.StdDev(), rep.UpdatesPerTrunkSec, rep
}

func TestAblationMovementLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	base, _, _ := ablationRun(t, 11)
	noLimits, _, _ := ablationRun(t, 11, HNMWithoutMovementLimits())
	t.Logf("oscillation swing: full HNM %.3f, without movement limits %.3f", base, noLimits)
	// §4.3: the limits "are essential for limiting the amplitude of
	// routing oscillations".
	if noLimits <= base {
		t.Errorf("removing movement limits should increase oscillation: %.3f vs %.3f",
			noLimits, base)
	}
}

func TestAblationMinChange(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	_, base, baseRep := ablationRun(t, 11)
	_, noThresh, noRep := ablationRun(t, 11, HNMWithoutMinChange())
	t.Logf("updates/trunk/sec: full HNM %.2f (orig %d), without threshold %.2f (orig %d)",
		base, baseRep.UpdatesOriginated, noThresh, noRep.UpdatesOriginated)
	// §4.3: the threshold reduces routing-related bandwidth consumption.
	if noRep.UpdatesOriginated <= baseRep.UpdatesOriginated {
		t.Errorf("removing the threshold should increase originations: %d vs %d",
			noRep.UpdatesOriginated, baseRep.UpdatesOriginated)
	}
}

// Ablations apply only to HN-SPF; Run refuses them with another metric,
// naming Spec.Ablations.
func TestAblationRequiresHNSPF(t *testing.T) {
	topo := Ring(4, T56)
	_, err := Run(Spec{Topology: topo, Traffic: topo.UniformTraffic(1000), Seconds: 60,
		Metric: DSPF, Ablations: []HNMOption{HNMWithoutAveraging()}})
	if err == nil || !strings.Contains(err.Error(), "Spec.Ablations") {
		t.Errorf("Run: err = %v, want one naming Spec.Ablations", err)
	}
}

// BenchmarkAblationBaseline is the unmodified HNM on the oscillation
// scenario; the ablation benchmarks below are read against it.
func BenchmarkAblationBaseline(b *testing.B) { benchAblation(b) }

// BenchmarkAblationNoMovementLimits removes the half-hop movement limits.
func BenchmarkAblationNoMovementLimits(b *testing.B) {
	benchAblation(b, HNMWithoutMovementLimits())
}

// BenchmarkAblationNoAveraging removes the .5/.5 utilization filter.
func BenchmarkAblationNoAveraging(b *testing.B) { benchAblation(b, HNMWithoutAveraging()) }

// BenchmarkAblationSymmetricLimits disables the one-unit upward march.
func BenchmarkAblationSymmetricLimits(b *testing.B) { benchAblation(b, HNMWithSymmetricLimits()) }

// BenchmarkAblationNoMinChange floods every cost change.
func BenchmarkAblationNoMinChange(b *testing.B) { benchAblation(b, HNMWithoutMinChange()) }

func benchAblation(b *testing.B, opts ...HNMOption) {
	var swing, updates float64
	for i := 0; i < b.N; i++ {
		swing, updates, _ = ablationRun(b, 11, opts...)
	}
	b.ReportMetric(swing, "swing")
	b.ReportMetric(updates, "updates/trunk/s")
}

// oscillationPeriod measures the dominant period (in 1-second samples) of
// the trunk-utilization difference in the two-region scenario.
func oscillationPeriod(tb testing.TB, seed int64, opts ...HNMOption) int {
	topo := TwoRegion(5, T56)
	tr := topo.HotspotTraffic(func(n string) bool {
		return strings.HasPrefix(n, "W")
	}, 170_000, 0.80)
	res := mustRun(tb, Spec{
		Topology: topo, Traffic: tr,
		Metric: HNSPF, Seed: seed, WarmupSeconds: 100, Seconds: 900, Ablations: opts,
		Track: [][2]string{{"W0", "E0"}, {"W1", "E1"}},
	})
	a, b := res.Tracked[0].Utilization, res.Tracked[1].Utilization
	diff := make([]float64, 0, a.Len())
	for i := 0; i < a.Len() && i < b.Len(); i++ {
		diff = append(diff, a.Y[i]-b.Y[i])
	}
	return stats.DominantPeriod(diff, 200, 0.15)
}

func TestAblationAveragingLengthensPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	// §4.3: "Averaging increases the period of routing oscillations, thus
	// reducing routing overhead." Remove the movement limits so the
	// oscillation is fully visible, then toggle the averaging filter.
	with := oscillationPeriod(t, 11, HNMWithoutMovementLimits())
	without := oscillationPeriod(t, 11, HNMWithoutMovementLimits(), HNMWithoutAveraging())
	t.Logf("oscillation period: with averaging %d s, without %d s", with, without)
	if without == 0 || with == 0 {
		t.Skip("no dominant period detected at this seed; the swing assertions cover the mechanism")
	}
	if with < without {
		t.Errorf("averaging should lengthen the period: with=%d without=%d", with, without)
	}
}

func TestAblationMD1Simulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	// The queueing-model sensitivity end to end: an HNM with the M/D/1
	// table still stabilizes the oscillation scenario (the metric's
	// stability does not hinge on the M/M/1 assumption).
	swing, _, rep := ablationRun(t, 11, HNMWithMD1Table())
	base, _, _ := ablationRun(t, 11)
	t.Logf("oscillation swing: M/M/1 table %.3f, M/D/1 table %.3f (delivered %.3f)",
		base, swing, rep.DeliveredRatio)
	if rep.DeliveredRatio < 0.95 {
		t.Errorf("M/D/1-table HNM delivered only %.3f", rep.DeliveredRatio)
	}
	if swing > 2.5*base+0.1 {
		t.Errorf("M/D/1 table destabilized the metric: swing %.3f vs %.3f", swing, base)
	}
}

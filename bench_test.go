package arpanet

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each iteration performs the full
// experiment at a time scale that keeps `go test -bench=.` tractable; the
// cmd/arpanetsim and cmd/figures binaries run the full-length versions.

import (
	"strings"
	"testing"
)

// table1Run is one before/after study run at benchmark scale.
func table1Run(b *testing.B, m Metric, bps float64) Report {
	b.Helper()
	topo := Arpanet1987()
	tr := topo.GravityTraffic(ArpanetWeights(), bps)
	return mustRun(b, Spec{Topology: topo, Traffic: tr, Metric: m, Seed: 1987, WarmupSeconds: 20, Seconds: 80}).Report
}

// BenchmarkTable1DSPF is the "May 1987" column: the delay metric at the
// calibrated peak-hour load.
func BenchmarkTable1DSPF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := table1Run(b, DSPF, 280_000)
		if r.DeliveredPackets == 0 {
			b.Fatal("no traffic delivered")
		}
	}
}

// BenchmarkTable1HNSPF is the "August 1987" column: the revised metric at
// +13% traffic.
func BenchmarkTable1HNSPF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := table1Run(b, HNSPF, 280_000*1.13)
		if r.DeliveredPackets == 0 {
			b.Fatal("no traffic delivered")
		}
	}
}

// BenchmarkFig1Oscillation runs the two-region oscillation scenario under
// both metrics.
func BenchmarkFig1Oscillation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []Metric{DSPF, HNSPF} {
			topo := TwoRegion(5, T56)
			tr := topo.HotspotTraffic(func(n string) bool {
				return strings.HasPrefix(n, "W")
			}, 120_000, 0.80)
			mustRun(b, Spec{
				Topology: topo, Traffic: tr, Metric: m, Seed: 11, WarmupSeconds: 50, Seconds: 250,
				Track: [][2]string{{"W0", "E0"}, {"W1", "E1"}},
			})
		}
	}
}

// BenchmarkHNMTransform measures the Figure 3 pipeline itself: one
// measurement-period update of the revised metric.
func BenchmarkHNMTransform(b *testing.B) {
	m := NewLinkMetric(T56, 0.010)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(0.010 + float64(i%20)/1000)
	}
}

// BenchmarkFig4MetricMap samples the normalized 56 kb/s metric curves.
func BenchmarkFig4MetricMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sink float64
		for u := 0.0; u < 0.95; u += 0.001 {
			sink += MetricCurve(HNSPF, T56, 0.010, u)
			sink += MetricCurve(DSPF, T56, 0.010, u)
			sink += MetricCurve(HNSPF, S56, 0.260, u)
		}
		if sink == 0 {
			b.Fatal("empty curves")
		}
	}
}

// BenchmarkFig5Bounds samples the absolute revised-metric curves for the
// four line types of Figure 5.
func BenchmarkFig5Bounds(b *testing.B) {
	kinds := []LineKind{T9_6, S9_6, T56, S56}
	props := []float64{0.010, 0.260, 0.010, 0.260}
	for i := 0; i < b.N; i++ {
		for k, kind := range kinds {
			m := NewLinkMetric(kind, props[k])
			for u := 0.0; u < 0.95; u += 0.001 {
				m.CostAt(u)
			}
		}
	}
}

// benchAnalysis builds the §5 model afresh (the dominant cost behind
// Figures 7-12): one Dijkstra per link and source.
func benchAnalysis() *Analysis {
	topo := Arpanet1987()
	return NewAnalysis(topo, topo.GravityTraffic(ArpanetWeights(), 400_000))
}

// BenchmarkFig7ShedCost builds the model and aggregates the shed-cost
// statistics.
func BenchmarkFig7ShedCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchAnalysis()
		if len(a.ShedCosts()) == 0 {
			b.Fatal("no shed stats")
		}
	}
}

// BenchmarkFig8ResponseMap samples the Network Response Map.
func BenchmarkFig8ResponseMap(b *testing.B) {
	a := benchAnalysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := a.ResponseSeries(9, 0.1); s.Len() == 0 {
			b.Fatal("empty response map")
		}
	}
}

// BenchmarkFig9Equilibrium solves the fixed point for both adaptive
// metrics at the four offered loads of Figure 9.
func BenchmarkFig9Equilibrium(b *testing.B) {
	a := benchAnalysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.5, 1.0, 1.5, 2.0} {
			a.Equilibrium(HNSPF, T56, f)
			a.Equilibrium(DSPF, T56, f)
		}
	}
}

// BenchmarkFig10EquilibriumSweep sweeps equilibrium utilization over
// offered load for all three metrics.
func BenchmarkFig10EquilibriumSweep(b *testing.B) {
	a := benchAnalysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.EquilibriumSweep(HNSPF, T56, 4, 0.1)
		a.EquilibriumSweep(DSPF, T56, 4, 0.1)
		a.EquilibriumSweep(MinHop, T56, 4, 0.1)
	}
}

// BenchmarkFig11DSPFDynamics traces the D-SPF cobweb from both starting
// points.
func BenchmarkFig11DSPFDynamics(b *testing.B) {
	a := benchAnalysis()
	eq, _ := a.Equilibrium(DSPF, T56, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Cobweb(DSPF, T56, 1.0, eq, 30)
		a.Cobweb(DSPF, T56, 1.0, eq+1.5, 30)
	}
}

// BenchmarkFig12HNSPFDynamics traces the HN-SPF cobweb (bounded
// oscillation and link ease-in).
func BenchmarkFig12HNSPFDynamics(b *testing.B) {
	a := benchAnalysis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Cobweb(HNSPF, T56, 1.0, 3, 30)
		a.Cobweb(HNSPF, T56, 0.3, 3, 30)
	}
}

// BenchmarkFig13Drops simulates a short before/after day series with the
// metric switched in the middle.
func BenchmarkFig13Drops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var total int64
		for day := 1; day <= 4; day++ {
			m := DSPF
			if day > 2 {
				m = HNSPF
			}
			topo := Arpanet1987()
			tr := topo.GravityTraffic(ArpanetWeights(), 285_000)
			total += mustRun(b, Spec{Topology: topo, Traffic: tr, Metric: m, Seed: int64(day), WarmupSeconds: 15, Seconds: 50}).Report.BufferDrops
		}
		_ = total
	}
}

// BenchmarkMultipathLargeFlow runs the §4.5 extension experiment: a
// 1.6-trunk flow over a 2×2 grid, single-path vs multipath. The reported
// metrics are the delivered ratios.
func BenchmarkMultipathLargeFlow(b *testing.B) {
	var single, multi float64
	for i := 0; i < b.N; i++ {
		for _, mp := range []bool{false, true} {
			topo := Grid(2, 2, T56)
			tr := topo.NewTraffic()
			tr.SetRate("R0.C0", "R1.C1", 1.6*56000)
			r := mustRun(b, Spec{
				Topology: topo, Traffic: tr, Metric: HNSPF, Seed: 3, WarmupSeconds: 30, Seconds: 150, Multipath: mp,
			}).Report
			if mp {
				multi = r.DeliveredRatio
			} else {
				single = r.DeliveredRatio
			}
		}
	}
	b.ReportMetric(single, "delivered-single")
	b.ReportMetric(multi, "delivered-multi")
}

// BenchmarkBellmanFord1969 runs the §2.1 historical baseline against
// D-SPF on the congested network; the reported metrics are the delivered
// ratios (the paper: D-SPF "was far superior").
func BenchmarkBellmanFord1969(b *testing.B) {
	var bf, dspf float64
	for i := 0; i < b.N; i++ {
		for _, m := range []Metric{BF1969, DSPF} {
			topo := Arpanet1987()
			tr := topo.GravityTraffic(ArpanetWeights(), 260_000)
			r := mustRun(b, Spec{Topology: topo, Traffic: tr, Metric: m, Seed: 31, WarmupSeconds: 30, Seconds: 130}).Report
			if m == BF1969 {
				bf = r.DeliveredRatio
			} else {
				dspf = r.DeliveredRatio
			}
		}
	}
	b.ReportMetric(bf, "delivered-bf1969")
	b.ReportMetric(dspf, "delivered-dspf")
}

// Command figures regenerates the data behind every figure in the paper's
// evaluation (Figures 1, 4, 5, 7, 8, 9, 10, 11, 12 and 13), as ASCII
// charts or TSV series.
//
//	figures -fig 4             # one figure
//	figures -fig all           # everything
//	figures -fig 10 -tsv       # machine-readable series
//
// Absolute values reflect the synthetic ARPANET-like topology (DESIGN.md);
// the shapes are the reproduction target (EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	arpanet "repro"
	"repro/internal/asciiplot"
	"repro/internal/stats"
)

// figs is one invocation: where the figures go and the flags they read.
type figs struct {
	out     io.Writer
	tsv     bool
	seed    int64
	days    int
	seconds float64
}

// fig1Warmup is Figure 1's warm-up in seconds, before the -seconds it measures.
const fig1Warmup = 100.0

// order is every figure, as -fig all prints them.
var order = []string{"1", "4", "5", "7", "8", "9", "10", "11", "12", "13"}

// readers names, for each flag only some figures read, the figures that read
// it: the packet-level runs of Figures 1 and 13 (the rest are the §5 model).
var readers = map[string][]string{
	"seconds": {"1"},
	"days":    {"13"},
	"seed":    {"1", "13"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly: 0 after the
// figures are written, 2 with one line on stderr (then usage) for a flag
// that does not parse, a stray argument, a figure that does not exist, a flag
// the chosen figure never reads (readers), a -seconds that is not a positive
// time the clock holds after Figure 1's warm-up or a -days below 1.
func run(args []string, stdout, stderr io.Writer) int {
	fg := &figs{out: stdout}
	figures := map[string]func(){
		"1": fg.figure1, "4": fg.figure4, "5": fg.figure5, "7": fg.figure7,
		"8": fg.figure8, "9": fg.figure9, "10": fg.figure10, "11": fg.figure11,
		"12": fg.figure12, "13": fg.figure13,
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+strings.Join(order, ", ")+" or all")
	fs.BoolVar(&fg.tsv, "tsv", false, "emit TSV instead of ASCII charts")
	fs.Int64Var(&fg.seed, "seed", 1987, "random seed")
	fs.IntVar(&fg.days, "days", 30, "simulated days for figure 13")
	fs.Float64Var(&fg.seconds, "seconds", 600, "simulated seconds figure 1 measures after its 100 s warm-up (no other figure reads it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first non-flag, so every flag after it
		// would be ignored.
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := figures[*fig]; !ok && *fig != "all" {
		return usage("unknown figure %q", *fig)
	}
	var ignored string
	fs.Visit(func(f *flag.Flag) {
		if r, ok := readers[f.Name]; ok && ignored == "" && *fig != "all" && !slices.Contains(r, *fig) {
			ignored = f.Name
		}
	})
	switch {
	case ignored != "":
		return usage("-%s has no effect on figure %s (it is read by figure %s only)", ignored, *fig, strings.Join(readers[ignored], " and figure "))
	case !(fg.seconds > 0 && fig1Warmup+fg.seconds < arpanet.MaxSeconds):
		return usage("-seconds %v is not a positive time the simulated clock holds after figure 1's %g s warm-up", fg.seconds, fig1Warmup)
	case fg.days < 1:
		return usage("-days %d is below 1", fg.days)
	}
	if *fig == "all" {
		for _, k := range order {
			figures[k]()
			fmt.Fprintln(stdout)
		}
		return 0
	}
	figures[*fig]()
	return 0
}

func (fg *figs) render(title string, series ...*stats.Series) {
	if fg.tsv {
		fmt.Fprint(fg.out, asciiplot.TSV(title, series...))
		return
	}
	fmt.Fprint(fg.out, asciiplot.Chart(title, 64, 16, series...))
}

// run performs one packet-level run; its -seconds and -days were checked, so
// an error is a bug.
func (fg *figs) run(s arpanet.Spec) arpanet.Result {
	res, err := arpanet.Run(s)
	if err != nil {
		panic(err)
	}
	return res
}

// analysis builds the §5 model on the ARPANET-like network once.
func analysis() *arpanet.Analysis {
	topo := arpanet.Arpanet1987()
	return arpanet.NewAnalysis(topo, topo.GravityTraffic(arpanet.ArpanetWeights(), 400000))
}

// figure1 runs the two-region oscillation scenario under D-SPF and HN-SPF
// and plots the utilization of inter-region trunks A and B.
func (fg *figs) figure1() {
	run := func(m arpanet.Metric) (a, b *stats.Series, rep arpanet.Report) {
		topo := arpanet.TwoRegion(5, arpanet.T56)
		tr := topo.HotspotTraffic(func(name string) bool {
			return strings.HasPrefix(name, "W")
		}, 120000, 0.80)
		res := fg.run(arpanet.Spec{
			Topology: topo, Traffic: tr, Metric: m, Seed: fg.seed, WarmupSeconds: fig1Warmup, Seconds: fig1Warmup + fg.seconds,
			Track: [][2]string{{"W0", "E0"}, {"W1", "E1"}},
		})
		return res.Tracked[0].Utilization, res.Tracked[1].Utilization, res.Report
	}
	da, db, dr := run(arpanet.DSPF)
	ha, hb, hr := run(arpanet.HNSPF)
	da.Name, db.Name = "trunk A (D-SPF)", "trunk B (D-SPF)"
	ha.Name, hb.Name = "trunk A (HN-SPF)", "trunk B (HN-SPF)"
	fmt.Fprintln(fg.out, "Figure 1: routing oscillations between two inter-region trunks")
	fg.render("D-SPF: trunk utilization vs time (s)", smooth(da, 10), smooth(db, 10))
	fg.render("HN-SPF: trunk utilization vs time (s)", smooth(ha, 10), smooth(hb, 10))
	fmt.Fprintf(fg.out, "D-SPF:  round-trip %.0f ms, drops %d\n", dr.RoundTripDelayMs, dr.BufferDrops)
	fmt.Fprintf(fg.out, "HN-SPF: round-trip %.0f ms, drops %d\n", hr.RoundTripDelayMs, hr.BufferDrops)
}

func smooth(s *stats.Series, k int) *stats.Series {
	out := stats.NewSeries(s.Name)
	for i := 0; i+k <= s.Len(); i += k {
		sum := 0.0
		for j := i; j < i+k; j++ {
			sum += s.Y[j]
		}
		out.Add(s.X[i+k-1], sum/float64(k))
	}
	return out
}

func metricSeries(name string, m arpanet.Metric, k arpanet.LineKind, prop float64) *stats.Series {
	s := stats.NewSeries(name)
	for u := 0.0; u <= 0.95+1e-9; u += 0.01 {
		s.Add(u, arpanet.MetricCurve(m, k, prop, u))
	}
	return s
}

// figure4 compares the normalized metrics for a 56 kb/s line.
func (fg *figs) figure4() {
	fmt.Fprintln(fg.out, "Figure 4: comparison of metrics (normalized, hops) for a 56 kb/s line")
	fg.render("reported cost (hops) vs utilization",
		metricSeries("D-SPF terrestrial", arpanet.DSPF, arpanet.T56, 0.010),
		metricSeries("HN-SPF satellite", arpanet.HNSPF, arpanet.S56, 0.260),
		metricSeries("HN-SPF terrestrial", arpanet.HNSPF, arpanet.T56, 0.010),
	)
}

// figure5 shows the absolute HN-SPF bounds for four line types.
func (fg *figs) figure5() {
	abs := func(name string, k arpanet.LineKind, prop float64) *stats.Series {
		s := stats.NewSeries(name)
		m := arpanet.NewLinkMetric(k, prop)
		for u := 0.0; u <= 0.95+1e-9; u += 0.01 {
			s.Add(u, m.CostAt(u))
		}
		return s
	}
	fmt.Fprintln(fg.out, "Figure 5: absolute bounds (routing units) of the revised metric")
	fg.render("reported cost (units) vs utilization",
		abs("9.6 satellite", arpanet.S9_6, 0.260),
		abs("9.6 terrestrial", arpanet.T9_6, 0.010),
		abs("56 satellite", arpanet.S56, 0.260),
		abs("56 terrestrial", arpanet.T56, 0.010),
	)
}

// figure7 prints the reported cost needed to shed routes, by route length.
func (fg *figs) figure7() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 7: reported cost (hops) needed to shed routes")
	fmt.Fprintf(fg.out, "  %-12s %8s %8s %8s %8s %8s\n", "route length", "mean", "stddev", "min", "max", "routes")
	for _, s := range a.ShedCosts() {
		fmt.Fprintf(fg.out, "  %-12d %8.2f %8.2f %8.1f %8.1f %8d\n",
			s.RouteLength, s.Mean, s.StdDev, s.Min, s.Max, s.Count)
	}
	fmt.Fprintf(fg.out, "  average cost to shed a route: %.2f hops (paper: ~4)\n", a.MeanShedCost())
	fmt.Fprintf(fg.out, "  cost shedding everything:     %.1f hops (paper: ~8)\n", a.MaxShedCost()+1)
}

// figure8 plots the network response map.
func (fg *figs) figure8() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 8: overall network response to reported cost")
	fg.render("normalized traffic on the average link vs reported cost (hops)",
		a.ResponseSeries(9, 0.25))
}

// figure9 overlays the metric maps with a family of response maps.
func (fg *figs) figure9() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 9: equilibrium calculation (utilization vs reported cost)")
	var all []*stats.Series
	for _, f := range []float64{0.5, 1.0, 1.5, 2.0} {
		s := stats.NewSeries(fmt.Sprintf("response %d%%", int(f*100)))
		for w := 1.0; w <= 6; w += 0.2 {
			u := f * a.Response(w)
			if u > 1 {
				u = 1
			}
			s.Add(w, u)
		}
		all = append(all, s)
	}
	for _, m := range []arpanet.Metric{arpanet.HNSPF, arpanet.DSPF} {
		s := stats.NewSeries("metric " + m.String())
		for u := 0.0; u <= 0.99; u += 0.02 {
			c := arpanet.MetricCurve(m, arpanet.T56, 0, u)
			if c <= 6 {
				s.Add(c, u)
			}
		}
		all = append(all, s)
	}
	fg.render("utilization vs reported cost (hops)", all...)
	for _, f := range []float64{0.5, 1.0, 1.5, 2.0} {
		ch, uh := a.Equilibrium(arpanet.HNSPF, arpanet.T56, f)
		cd, ud := a.Equilibrium(arpanet.DSPF, arpanet.T56, f)
		fmt.Fprintf(fg.out, "  offered %3.0f%%: HN-SPF equilibrium (cost %.2f, util %.2f), D-SPF (cost %.2f, util %.2f)\n",
			f*100, ch, uh, cd, ud)
	}
}

// figure10 sweeps equilibrium utilization over offered load.
func (fg *figs) figure10() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 10: equilibrium traffic for a heavily utilized line")
	minhop := stats.NewSeries("min-hop")
	for f := 0.1; f <= 4.0+1e-9; f += 0.1 {
		u := f
		if u > 1 {
			u = 1
		}
		minhop.Add(f, u)
	}
	fg.render("equilibrium link utilization vs min-hop offered load",
		minhop,
		a.EquilibriumSweep(arpanet.HNSPF, arpanet.T56, 4.0, 0.1),
		a.EquilibriumSweep(arpanet.DSPF, arpanet.T56, 4.0, 0.1),
	)
}

func cobwebSeries(name string, trace []arpanet.CobwebPoint) *stats.Series {
	s := stats.NewSeries(name)
	for _, p := range trace {
		s.Add(float64(p.Period), p.Cost)
	}
	return s
}

// figure11 traces D-SPF dynamics: meta-stable equilibrium vs divergence.
func (fg *figs) figure11() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 11: dynamic behavior of D-SPF at 100% offered load")
	eq, _ := a.Equilibrium(arpanet.DSPF, arpanet.T56, 1.0)
	near := a.Cobweb(arpanet.DSPF, arpanet.T56, 1.0, eq, 30)
	far := a.Cobweb(arpanet.DSPF, arpanet.T56, 1.0, eq+1.5, 30)
	fg.render("reported cost (hops) vs period",
		cobwebSeries("start at equilibrium", near),
		cobwebSeries("start perturbed", far))
	fmt.Fprintf(fg.out, "  equilibrium cost %.2f; amplitude near %.2f, perturbed %.2f (unbounded oscillation)\n",
		eq, arpanet.CobwebAmplitude(near), arpanet.CobwebAmplitude(far))
}

// figure12 traces HN-SPF dynamics: bounded oscillation and link ease-in.
func (fg *figs) figure12() {
	a := analysis()
	fmt.Fprintln(fg.out, "Figure 12: dynamic behavior of HN-SPF at 100% offered load")
	heavy := a.Cobweb(arpanet.HNSPF, arpanet.T56, 1.0, 3, 30)
	easeIn := a.Cobweb(arpanet.HNSPF, arpanet.T56, 0.3, 3, 30)
	fg.render("reported cost (hops) vs period",
		cobwebSeries("overloaded, start at max", heavy),
		cobwebSeries("easing in a new link (light load)", easeIn))
	fmt.Fprintf(fg.out, "  bounded amplitude %.2f (D-SPF oscillates across the full range)\n",
		arpanet.CobwebAmplitude(heavy))
}

// figure13 simulates a month of peak hours with the metric switched in the
// middle, reporting dropped packets per day.
func (fg *figs) figure13() {
	fmt.Fprintln(fg.out, "Figure 13: dropped packets per day; HNM installed mid-series")
	drops := stats.NewSeries("drops/day")
	const (
		base     = 280000.0 // matches the Table 1 'May 1987' calibration
		growth   = 0.01     // +1% traffic per day
		daySecs  = 150.0    // simulated peak-hour slice per day
		warmSecs = 50.0
	)
	switchDay := fg.days / 2 // "July 1987": the HNM installation date
	for day := 1; day <= fg.days; day++ {
		m := arpanet.DSPF
		if day > switchDay {
			m = arpanet.HNSPF
		}
		topo := arpanet.Arpanet1987()
		tr := topo.GravityTraffic(arpanet.ArpanetWeights(), base*(1+growth*float64(day)))
		res := fg.run(arpanet.Spec{
			Topology: topo, Traffic: tr, Metric: m, Seed: fg.seed + int64(day),
			WarmupSeconds: warmSecs, Seconds: warmSecs + daySecs,
		})
		drops.Add(float64(day), float64(res.Report.BufferDrops))
	}
	fg.render(fmt.Sprintf("dropped packets vs day (metric switched after day %d)", switchDay), drops)
}

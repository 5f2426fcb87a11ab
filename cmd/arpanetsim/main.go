// Command arpanetsim reproduces the paper's Table 1: the network-wide
// performance indicators of the ARPANET before (D-SPF, May 1987 traffic)
// and after (HN-SPF, August 1987 traffic, +13%) the installation of the
// revised metric.
//
//	arpanetsim                     # the before/after study
//	arpanetsim -metric hnspf       # a single run
//	arpanetsim -traffic 500 -seconds 900
//	arpanetsim -scenario examples/flapping/utah-collins.scn -seeds 5
//
// The topology is the synthetic ARPANET-like network (see DESIGN.md); the
// absolute numbers therefore differ from the paper's, but the comparisons
// — who wins each row, by roughly what factor — are the reproduction
// target (see EXPERIMENTS.md).
//
// -scenario runs a fault-injection script (the .scn format of
// arpanet.Spec.Script) instead, once per seed and metric, and prints each
// seed's outcome and any violated invariant: packet conservation, single
// transmitter per link, post-flood convergence. The script supplies the
// duration and the timeline; -traffic, -warmup, -seed and -topology keep
// their meaning.
//
// -shards N splits the network of any mode into N shards, each run on a
// goroutine of its own (arpanet.Spec.Shards), and prints the same bytes but
// for a per-node run's counters:
//
//	arpanetsim -shards 2 -warmup 10 -seconds 60
//	arpanetsim -shards 2 -scenario examples/flapping/utah-collins.scn
//
// -rate, -dests, -radius, -adaptive or a generated -topology run per-node
// traffic instead of a gravity matrix (shards.go):
//
//	arpanetsim -adaptive -metric dspf -scenario examples/flapping/utah-collins.scn
//
// The exit status is 0 after the output is written; 1 with the reason on
// stderr when a run cannot start (arpanet.Run refuses its Spec) or a script
// does not load, and after the output when a -scenario or per-node run
// violates an invariant; 2 with usage for flags no mode can mean and for a
// -topology no generator builds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"

	arpanet "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the command's flags.
type options struct {
	metric, topology, scenario, cpuProfile, memProfile string
	traffic, growth, seconds, warmup, rate             float64
	seed                                               int64
	seeds, shards, dests, radius                       int
	json, adaptive                                     bool
	perNode                                            bool // the per-node mode (check sets it)
}

// parse reads args into options. The error is a bad flag, already reported
// with usage on stderr.
func parse(args []string, stderr io.Writer) (*options, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("arpanetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.metric, "metric", "both", "hnspf, dspf, minhop, bf1969, or both (the before/after study; D-SPF with per-node traffic)")
	// 280 kbps plays the role of the paper's May-1987 peak-hour load
	// (366 kbps over 71 trunks) on this 44-trunk topology: heavy enough
	// that D-SPF's oscillations dominate, light enough that HN-SPF
	// carries nearly everything. See EXPERIMENTS.md for the calibration.
	fs.Float64Var(&o.traffic, "traffic", 280, "offered internode traffic in kbps ('May-1987' level)")
	fs.Float64Var(&o.growth, "growth", 413.99/366.26, "traffic multiplier for the after run")
	fs.Float64Var(&o.seconds, "seconds", 600, "measured simulation time")
	fs.Float64Var(&o.warmup, "warmup", 100, "warmup time before measurement")
	fs.Int64Var(&o.seed, "seed", 1987, "random seed")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent seeds to average over")
	fs.BoolVar(&o.json, "json", false, "emit reports as JSON instead of the table")
	fs.StringVar(&o.topology, "topology", "arpanet", "arpanet, milnet, or (per-node traffic) hier:<R>x<P> / waxman:<N>")
	fs.StringVar(&o.scenario, "scenario", "", "fault-injection script to run instead of the Table 1 study")
	fs.IntVar(&o.shards, "shards", 0, "split the network into this many shards, one goroutine each (0 = one shard)")
	fs.Float64Var(&o.rate, "rate", 1.0, "per-node traffic: packets a second from each PSN")
	fs.IntVar(&o.dests, "dests", 3, "per-node traffic: destinations per source")
	fs.IntVar(&o.radius, "radius", 0, "per-node traffic: destination locality radius in hops (0 = uniform)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "per-node traffic, routed by the adaptive plane under -metric")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit, after a GC (with per-node traffic the simulator is still live in it)")
	return o, fs, fs.Parse(args)
}

// check returns the metrics -metric names, or why no mode can run the
// flags fs parsed into o.
func (o *options) check(fs *flag.FlagSet) ([]arpanet.Metric, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	kinds, err := metricKinds(o.metric)
	if err == nil {
		err = numberFlag(fs)
	}
	o.perNode = perNode(set, o.adaptive, o.topology)
	if err == nil && !o.perNode && o.scenario == "" && o.warmup+o.seconds >= arpanet.MaxSeconds {
		// The Table 1 study's horizon is the two together.
		err = fmt.Errorf("-warmup %v plus -seconds %v is past the simulated clock's range (%g s)", o.warmup, o.seconds, arpanet.MaxSeconds)
	}
	if err == nil {
		err = checkFlags(set, o.perNode, o.adaptive, o.scenario, kinds)
	}
	return kinds, err
}

// run is the whole command minus the process exit, so tests drive it
// directly.
func run(args []string, stdout, stderr io.Writer) int {
	o, fs, err := parse(args, stderr)
	if err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "arpanetsim:", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "arpanetsim:", err)
		return 1
	}
	kinds, err := o.check(fs)
	if err != nil {
		return usage(err)
	}
	var script []byte
	if o.scenario != "" {
		if script, err = os.ReadFile(o.scenario); err == nil && len(script) == 0 {
			err = fmt.Errorf("%s: empty script", o.scenario)
		}
		if err != nil {
			return fail(err)
		}
	}
	topo, err := arpanet.ParseTopology(o.topology, o.seed)
	if err != nil {
		return usage(err)
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return fail(err)
	}
	var live any
	code := 0
	if o.perNode {
		live, err = sharded(stdout, shardSpec(o, topo, kinds[0], script))
	} else {
		code, err = study(stdout, studySpecs(o, topo, kinds, script), o.seeds, o.json)
	}
	if err != nil && script != nil {
		err = fmt.Errorf("%s: %w", o.scenario, err)
	}
	if perr := stopProfiles(live); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	return code
}

// studySpecs are the runs of the Table 1 study and -scenario, on -shards
// shards: one Spec per metric, the script's timeline at one load, or the
// study's measured window with the after run's load grown. The gravity
// weights are the map's.
func studySpecs(o *options, topo *arpanet.Topology, kinds []arpanet.Metric, script []byte) []arpanet.Spec {
	weights, bps := arpanet.ArpanetWeights(), o.traffic*1000
	if o.topology == "milnet" {
		weights = arpanet.MilnetWeights()
		if o.traffic == 280 {
			// MILNET's aggregate capacity is smaller; rescale the default load
			// to the equivalent regime (see milnet_test.go).
			bps = 150_000
		}
	}
	var specs []arpanet.Spec
	for i, m := range kinds {
		load := bps
		if i == 1 && script == nil {
			load *= o.growth
		}
		s := arpanet.Spec{Topology: topo, Traffic: topo.GravityTraffic(weights, load), Metric: m,
			Seed: o.seed, WarmupSeconds: o.warmup, Script: string(script), Shards: o.shards}
		if script == nil {
			s.Seconds = o.warmup + o.seconds
		}
		specs = append(specs, s)
	}
	return specs
}

// metricKinds maps the -metric flag to the metrics it names, for every
// mode. "both" is the before/after pair, D-SPF first; a mode that runs a
// single metric (per-node traffic) takes the first.
func metricKinds(name string) ([]arpanet.Metric, error) {
	switch name {
	case "both":
		return []arpanet.Metric{arpanet.DSPF, arpanet.HNSPF}, nil
	case "hnspf":
		return []arpanet.Metric{arpanet.HNSPF}, nil
	case "dspf":
		return []arpanet.Metric{arpanet.DSPF}, nil
	case "minhop":
		return []arpanet.Metric{arpanet.MinHop}, nil
	case "bf1969":
		return []arpanet.Metric{arpanet.BF1969}, nil
	default:
		return nil, fmt.Errorf("unknown -metric %q (want hnspf, dspf, minhop, bf1969, or both)", name)
	}
}

// numberFlag rejects a number no mode can mean: NaN, which flag.Float64
// parses happily and sim.FromSeconds panics on; infinity, a horizon that
// never comes or a load whose packets all arrive at once, so the clock
// never moves; a -seconds or -warmup past the simulated clock's range,
// which sim.FromSeconds saturates to a horizon that never comes; anything
// below zero, which panics in traffic.Gravity (-traffic, -growth) or
// silently runs something else (no measured time, no warm-up, uniform
// destinations); and -seeds 0, no run to average.
func numberFlag(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		var v float64
		switch x := f.Value.(flag.Getter).Get().(type) {
		case float64:
			v = x
		case int:
			v = float64(x)
		}
		switch {
		case math.IsNaN(v):
			err = fmt.Errorf("-%s is not a number", f.Name)
		case math.IsInf(v, 0):
			err = fmt.Errorf("-%s %s is not finite", f.Name, f.Value)
		case (f.Name == "seconds" || f.Name == "warmup") && v >= arpanet.MaxSeconds:
			err = fmt.Errorf("-%s %s is past the simulated clock's range (%g s)", f.Name, f.Value, arpanet.MaxSeconds)
		case v < 0:
			err = fmt.Errorf("-%s %s is negative", f.Name, f.Value)
		case v == 0 && f.Name == "seeds":
			err = fmt.Errorf("-%s must be positive", f.Name)
		}
	})
	return err
}

// perNode reports whether the command runs per-node traffic, which -rate,
// -dests, -radius, -adaptive or a generated -topology choose, instead of a
// gravity matrix on the arpanet or milnet map; set holds the flags given on
// the command line.
func perNode(set map[string]bool, adaptive bool, topology string) bool {
	return adaptive || set["rate"] || set["dests"] || set["radius"] || topology != "arpanet" && topology != "milnet"
}

// checkFlags rejects a flag that the chosen mode never reads: setting one
// is an error, not a silent no-op. set holds the flags given on the command line (flag.Visit), so
// defaults never count; kinds are the metrics -metric named. perNode is
// the per-node mode (perNode); else the command runs the Table 1 study or
// -scenario on a gravity matrix. -shards means the same in every mode.
func checkFlags(set map[string]bool, perNode, adaptive bool, scenario string, kinds []arpanet.Metric) error {
	mode := "with a gravity matrix (the Table 1 study and -scenario are always adaptive)"
	ignored := []string{"adaptive"} // -adaptive=false: only the per-node mode has static routes
	switch {
	case perNode && scenario != "":
		mode = "with per-node traffic and -scenario (the script supplies the duration)"
		ignored = []string{"seconds", "seeds", "json", "traffic", "growth", "warmup"}
	case perNode:
		mode = "with per-node traffic"
		ignored = []string{"seeds", "json", "traffic", "growth", "warmup"}
	case scenario != "":
		mode = "with -scenario"
		ignored = append(ignored, "seconds", "growth")
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s has no effect %s", name, mode)
		}
	}
	switch {
	case perNode && scenario != "" && !adaptive:
		return errors.New("-scenario with per-node traffic needs -adaptive: static routes flood nothing, so no PSN would hear of a failure")
	case perNode && !adaptive && set["metric"]:
		return errors.New("-metric has no effect with per-node traffic unless -adaptive is set (static routes otherwise)")
	case !perNode && scenario == "" && len(kinds) == 1 && set["growth"]:
		return errors.New("-growth has no effect with a single -metric (it scales the after run of -metric both)")
	}
	return nil
}

// study runs every spec over n seeds, in parallel through arpanet.RunSeeds,
// and writes the Table 1 output, or with a script the -scenario output.
func study(w io.Writer, specs []arpanet.Spec, n int, asJSON bool) (code int, err error) {
	results := make([][]arpanet.Result, len(specs))
	for i, s := range specs {
		if results[i], err = arpanet.RunSeeds(s, n); err != nil {
			return 0, err
		}
	}
	if specs[0].Script != "" {
		return printScenario(w, results, asJSON)
	}
	switch {
	case asJSON && len(results) == 2:
		return 0, emitJSON(w, map[string]arpanet.Report{"before": mean(results[0]), "after": mean(results[1])})
	case asJSON:
		return 0, emitJSON(w, mean(results[0]))
	case len(results) == 2: // "both": the before/after study
		printTable1(w, mean(results[0]), mean(results[1]))
		if n > 1 {
			printSpread(w, results[0], results[1])
		}
	default:
		fmt.Fprint(w, mean(results[0]).String())
	}
	return 0, nil
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// mean averages every numeric field of the seeds' reports, the ledger's
// too — floats as floats, counters by integer division — and recomputes the
// path ratio from the mean hop counts. The reports share a metric and a
// duration.
func mean(rs []arpanet.Result) arpanet.Report {
	out := rs[0].Report
	vs := make([]reflect.Value, len(rs))
	for i, r := range rs {
		vs[i] = reflect.ValueOf(r.Report)
	}
	average(reflect.ValueOf(&out).Elem(), vs)
	if out.MinPathHops > 0 {
		out.PathRatio = out.ActualPathHops / out.MinPathHops
	}
	return out
}

// average sets each float64 and int64 field of out, in nested structs too,
// to the mean of that field over vs, values of out's type: a counter's mean
// rounds toward zero.
func average(out reflect.Value, vs []reflect.Value) {
	for i := 0; i < out.NumField(); i++ {
		fs, sum := make([]reflect.Value, len(vs)), 0.0
		for j, v := range vs {
			if fs[j] = v.Field(i); fs[j].CanInt() {
				sum += float64(fs[j].Int())
			} else if fs[j].CanFloat() {
				sum += fs[j].Float()
			}
		}
		switch f := out.Field(i); f.Kind() {
		case reflect.Struct:
			average(f, fs)
		case reflect.Float64:
			f.SetFloat(sum / float64(len(vs)))
		case reflect.Int64:
			f.SetInt(int64(sum) / int64(len(vs)))
		}
	}
}

func printSpread(w io.Writer, before, after []arpanet.Result) {
	sd := func(rs []arpanet.Result, f func(arpanet.Report) float64) float64 {
		m := 0.0
		for _, r := range rs {
			m += f(r.Report)
		}
		m /= float64(len(rs))
		v := 0.0
		for _, r := range rs {
			d := f(r.Report) - m
			v += d * d
		}
		return math.Sqrt(v / float64(len(rs)-1))
	}
	delay := func(r arpanet.Report) float64 { return r.RoundTripDelayMs }
	drops := func(r arpanet.Report) float64 { return float64(r.BufferDrops) }
	fmt.Fprintf(w, "\nSpread over %d seeds (standard deviation):\n", len(before))
	fmt.Fprintf(w, "  Round Trip Delay (ms): D-SPF ±%.1f, HN-SPF ±%.1f\n",
		sd(before, delay), sd(after, delay))
	fmt.Fprintf(w, "  Dropped Packets:       D-SPF ±%.0f, HN-SPF ±%.0f\n",
		sd(before, drops), sd(after, drops))
}

func printTable1(w io.Writer, before, after arpanet.Report) {
	fmt.Fprintln(w, "Table 1: Network-wide Performance Indicators")
	fmt.Fprintln(w, "(paper: ARPANET May 87 / Aug 87; here: simulated before/after)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-30s %12s %12s\n", "", "D-SPF", "HN-SPF")
	row := func(name string, b, a float64) {
		fmt.Fprintf(w, "  %-30s %12.2f %12.2f\n", name, b, a)
	}
	row("Internode Traffic (kbps)", before.InternodeTrafficKbps, after.InternodeTrafficKbps)
	row("Round Trip Delay (ms)", before.RoundTripDelayMs, after.RoundTripDelayMs)
	row("Rtng. Updates per Trunk/sec", before.UpdatesPerTrunkSec, after.UpdatesPerTrunkSec)
	row("Update Period per Node (sec)", before.UpdatePeriodPerNode, after.UpdatePeriodPerNode)
	row("Internode Actual Path (hops)", before.ActualPathHops, after.ActualPathHops)
	row("Internode Minimum Path", before.MinPathHops, after.MinPathHops)
	row("Path Ratio (Actual/Min.)", before.PathRatio, after.PathRatio)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-30s %12d %12d\n", "Dropped Packets (buffers)", before.BufferDrops, after.BufferDrops)
	row("Delivered Ratio", before.DeliveredRatio, after.DeliveredRatio)
	row("Mean Link Utilization", before.MeanLinkUtilization, after.MeanLinkUtilization)
	row("Routing Overhead (kbps)", before.RoutingKbps, after.RoutingKbps)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper's measured values for reference:")
	fmt.Fprintln(w, "  Traffic 366.26→413.99 kbps, Delay 635.45→338.59 ms,")
	fmt.Fprintln(w, "  Updates/Trunk/sec 2.04→1.74, Update Period 22.06→26.32 s,")
	fmt.Fprintln(w, "  Actual Path 4.91→3.70, Min Path 3.97→3.24, Ratio 1.24→1.14")
}

// printScenario writes the per-seed results of every metric, as JSON keyed
// by metric name or as one table per metric. The code is 1 when any seed
// violated an invariant.
func printScenario(w io.Writer, byMetric [][]arpanet.Result, asJSON bool) (code int, err error) {
	m := map[string][]arpanet.Result{}
	for _, results := range byMetric {
		m[results[0].Report.Metric] = results
		for _, r := range results {
			if len(r.Violations) > 0 {
				code = 1
			}
		}
	}
	if asJSON {
		return code, emitJSON(w, m)
	}
	sc := byMetric[0][0].Script
	fmt.Fprintf(w, "Scenario %q: %.0f s, %d events\n", sc.Name, sc.Duration.Seconds(), len(sc.Events))
	for _, results := range byMetric {
		fmt.Fprintf(w, "\n%s\n", results[0].Report.Metric)
		fmt.Fprintf(w, "  %6s %10s %10s %10s %10s %12s\n",
			"seed", "delivered", "buf-drops", "outages", "no-route", "checkpoints")
		for _, r := range results {
			fmt.Fprintf(w, "  %6d %10.4f %10d %10d %10d %12d\n",
				r.Seed, r.Report.DeliveredRatio, r.Report.BufferDrops,
				r.Report.OutageDrops, r.Report.NoRouteDrops, len(r.Checkpoints))
		}
		for _, r := range results {
			for _, v := range r.Violations {
				fmt.Fprintf(w, "  VIOLATION seed %d at %v [%s]: %s\n", r.Seed, v.At, v.Check, v.Err)
			}
		}
	}
	return code, nil
}

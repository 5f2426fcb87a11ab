// Command arpanetsim reproduces the paper's Table 1: the network-wide
// performance indicators of the ARPANET before (D-SPF, May 1987 traffic)
// and after (HN-SPF, August 1987 traffic, +13%) the installation of the
// revised metric.
//
//	arpanetsim                     # the before/after study
//	arpanetsim -metric hnspf       # a single run
//	arpanetsim -traffic 500 -seconds 900
//	arpanetsim -scenario examples/flapping/utah-collins.scn -seeds 5
//	arpanetsim -shards 4 -topology hier:32x32 -metric static -warmup 0 -seconds 30
//
// The topology is the synthetic ARPANET-like network (see DESIGN.md); the
// absolute numbers therefore differ from the paper's, but the comparisons
// — who wins each row, by roughly what factor — are the reproduction
// target (see EXPERIMENTS.md).
//
// Every invocation is one arpanet.RunSeeds call per metric, -seeds runs
// each. The offered load is a gravity matrix of -traffic kbps on the
// arpanet or milnet map, or per-node traffic (arpanet.NodeTraffic) when
// -rate, -dests or -radius is set or -topology is generated; -growth scales
// the after run's. -metric static routes one run by a static table over
// fixed link costs instead of the adaptive plane.
//
// -scenario runs a fault-injection script (the .scn format of
// arpanet.Spec.Script) instead of -seconds, once per seed and metric, and
// prints each seed's outcome and any violated invariant: packet
// conservation, single transmitter per link, post-flood convergence.
//
// -shards N splits the network into N shards, each run on a goroutine of
// its own (arpanet.Spec.Shards), and prints the same bytes but for the
// counters a single text run prints after its report:
//
//	arpanetsim -shards 2 -warmup 10 -seconds 60
//	arpanetsim -shards 2 -rate 1 -metric bf1969 -scenario examples/flapping/utah-collins.scn
//
// The exit status is 0 after the output is written; 1 with the reason on
// stderr when a run cannot start (arpanet.RunSeeds refuses its Spec) or a
// script does not load, and after the output, with their count on stderr,
// when a run violates an invariant; 2 with usage for flags the run would
// ignore and for a -topology no generator builds.
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
	json                                               bool
	set                                                map[string]bool // the flags given on the command line (check fills it)
}

// parse reads args into options. The error is a bad flag, already reported
// with usage on stderr.
func parse(args []string, stderr io.Writer) (*options, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("arpanetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.metric, "metric", "both", "hnspf, dspf, minhop, bf1969, static (fixed link costs), or both (the before/after study)")
	// 280 kbps plays the role of the paper's May-1987 peak-hour load
	// (366 kbps over 71 trunks) on this 44-trunk topology: heavy enough
	// that D-SPF's oscillations dominate, light enough that HN-SPF
	// carries nearly everything. See EXPERIMENTS.md for the calibration.
	fs.Float64Var(&o.traffic, "traffic", 280, "gravity traffic: offered internode load in kbps ('May-1987' level)")
	fs.Float64Var(&o.growth, "growth", 413.99/366.26, "traffic multiplier for the after run")
	fs.Float64Var(&o.seconds, "seconds", 600, "measured simulation time")
	fs.Float64Var(&o.warmup, "warmup", 100, "warmup time before measurement")
	fs.Int64Var(&o.seed, "seed", 1987, "random seed")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent seeds to average over")
	fs.BoolVar(&o.json, "json", false, "emit reports as JSON instead of the table")
	fs.StringVar(&o.topology, "topology", "arpanet", "arpanet, milnet, or (per-node traffic) hier:<R>x<P> / waxman:<N>")
	fs.StringVar(&o.scenario, "scenario", "", "fault-injection script to run instead of -seconds")
	fs.IntVar(&o.shards, "shards", 0, "split the network into this many shards, one goroutine each (0 = one shard)")
	fs.Float64Var(&o.rate, "rate", 1.0, "per-node traffic: packets a second from each PSN")
	fs.IntVar(&o.dests, "dests", 3, "per-node traffic: destinations per source")
	fs.IntVar(&o.radius, "radius", 0, "per-node traffic: destination locality radius in hops (0 = uniform)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit, after a GC (every run's simulator still live in it)")
	return o, fs, fs.Parse(args)
}

// check returns the runs -metric names, or why the flags fs parsed into o
// cannot run.
func (o *options) check(fs *flag.FlagSet) ([]arpanet.Spec, error) {
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	kinds, err := metricKinds(o.metric)
	if err == nil {
		err = numberFlag(fs)
	}
	if err == nil && o.scenario == "" && o.warmup+o.seconds >= arpanet.MaxSeconds {
		// The run's horizon is the two together.
		err = fmt.Errorf("-warmup %v plus -seconds %v is past the simulated clock's range (%g s)", o.warmup, o.seconds, arpanet.MaxSeconds)
	}
	if err == nil {
		err = checkFlags(o.set, o.perNode(), o.scenario, kinds)
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
	specs := studySpecs(o, topo, kinds, script)
	results, err := study(specs, o.seeds)
	if err != nil && script != nil {
		err = fmt.Errorf("%s: %w", o.scenario, err)
	}
	violations := 0
	if err == nil {
		violations, err = output(stdout, specs, results, o.json)
	}
	if perr := stopProfiles(results); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	if violations > 0 {
		return fail(fmt.Errorf("%d invariant violations", violations))
	}
	return 0
}

// perNode reports whether the run offers per-node traffic, which -rate,
// -dests, -radius or a generated -topology choose, instead of a gravity
// matrix on the arpanet or milnet map.
func (o *options) perNode() bool {
	return o.set["rate"] || o.set["dests"] || o.set["radius"] || o.topology != "arpanet" && o.topology != "milnet"
}

// studySpecs completes each of the runs -metric names (kinds) on topo and
// -shards shards: per-node traffic or a gravity matrix on the map's
// weights, and the script's timeline at one load or the measured window
// after the warm-up with the after run's load grown.
func studySpecs(o *options, topo *arpanet.Topology, kinds []arpanet.Spec, script []byte) []arpanet.Spec {
	weights, bps := arpanet.ArpanetWeights(), o.traffic*1000
	if o.topology == "milnet" {
		weights = arpanet.MilnetWeights()
		if !o.set["traffic"] {
			// MILNET's aggregate capacity is smaller; rescale the default load
			// to the equivalent regime (see milnet_test.go).
			bps = 150_000
		}
	}
	specs := make([]arpanet.Spec, len(kinds))
	for i, s := range kinds {
		grow := 1.0
		if i == 1 && script == nil {
			grow = o.growth
		}
		if o.perNode() {
			s.NodeTraffic = &arpanet.NodeTraffic{Rate: o.rate * grow, Dests: o.dests, Radius: o.radius}
		} else {
			s.Traffic = topo.GravityTraffic(weights, bps*grow)
		}
		s.Topology, s.Seed, s.WarmupSeconds, s.Script, s.Shards = topo, o.seed, o.warmup, string(script), o.shards
		if script == nil {
			s.Seconds = o.warmup + o.seconds
		}
		specs[i] = s
	}
	return specs
}

// metricKinds maps the -metric flag to the runs it names, each a Spec
// with only its routing set. "both" is the before/after pair, D-SPF first;
// "static" is one run on static routes, Metric left unset.
func metricKinds(name string) ([]arpanet.Spec, error) {
	switch name {
	case "both":
		return []arpanet.Spec{{Metric: arpanet.DSPF}, {Metric: arpanet.HNSPF}}, nil
	case "hnspf":
		return []arpanet.Spec{{Metric: arpanet.HNSPF}}, nil
	case "dspf":
		return []arpanet.Spec{{Metric: arpanet.DSPF}}, nil
	case "minhop":
		return []arpanet.Spec{{Metric: arpanet.MinHop}}, nil
	case "bf1969":
		return []arpanet.Spec{{Metric: arpanet.BF1969}}, nil
	case "static":
		return []arpanet.Spec{{StaticRoutes: true}}, nil
	default:
		return nil, fmt.Errorf("unknown -metric %q (want hnspf, dspf, minhop, bf1969, static, or both)", name)
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

// checkFlags rejects a flag the run never reads: setting one is an error,
// not a silent no-op. set holds the flags given on the command line
// (flag.Visit), so defaults never count; perNode is per-node traffic
// (options.perNode), kinds the runs -metric names. What arpanet.Spec's own
// check refuses, such as a script on static routes, is left to it.
func checkFlags(set map[string]bool, perNode bool, scenario string, kinds []arpanet.Spec) error {
	switch {
	case perNode && set["traffic"]:
		return errors.New("-traffic has no effect with per-node traffic (-rate sets its load)")
	case scenario != "" && set["seconds"]:
		return errors.New("-seconds has no effect with -scenario (the script supplies the duration)")
	case scenario != "" && set["growth"]:
		return errors.New("-growth has no effect with -scenario (every metric runs at one load)")
	case len(kinds) == 1 && set["growth"]:
		return errors.New("-growth has no effect with a single -metric (it scales the after run of -metric both)")
	}
	return nil
}

// study runs every spec over n seeds, in parallel through arpanet.RunSeeds.
func study(specs []arpanet.Spec, n int) ([][]arpanet.Result, error) {
	results := make([][]arpanet.Result, len(specs))
	for i, s := range specs {
		var err error
		if results[i], err = arpanet.RunSeeds(s, n); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// output writes the results of specs: with a script the -scenario output,
// else the Table 1 pair or the single run's report, which at one seed the
// run's counters follow, and every violated invariant as a VIOLATION line;
// or with asJSON the mean reports. It returns the number of violations.
func output(w io.Writer, specs []arpanet.Spec, results [][]arpanet.Result, asJSON bool) (violations int, err error) {
	for _, rs := range results {
		for _, r := range rs {
			violations += len(r.Violations)
		}
	}
	if specs[0].Script != "" {
		return violations, printScenario(w, results, asJSON)
	}
	switch {
	case asJSON && len(results) == 2:
		return violations, emitJSON(w, map[string]arpanet.Report{"before": mean(results[0]), "after": mean(results[1])})
	case asJSON:
		return violations, emitJSON(w, mean(results[0]))
	case len(results) == 2: // "both": the before/after study
		printTable1(w, mean(results[0]), mean(results[1]))
		if len(results[0]) > 1 {
			printSpread(w, results[0], results[1])
		}
	default:
		fmt.Fprint(w, mean(results[0]).String())
		if rs := results[0]; len(rs) == 1 {
			printCounters(w, rs[0].Stats)
			if specs[0].StaticRoutes {
				printRoutes(w, rs[0].Stats)
			}
		}
	}
	for _, rs := range results {
		printViolations(w, rs)
	}
	return violations, nil
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
// by metric name or as one table per metric.
func printScenario(w io.Writer, byMetric [][]arpanet.Result, asJSON bool) error {
	if asJSON {
		m := map[string][]arpanet.Result{}
		for _, results := range byMetric {
			m[results[0].Report.Metric] = results
		}
		return emitJSON(w, m)
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
		printViolations(w, results)
	}
	return nil
}

// printViolations writes each invariant the seeds' runs violated.
func printViolations(w io.Writer, results []arpanet.Result) {
	for _, r := range results {
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  VIOLATION seed %d at %v [%s]: %s\n", r.Seed, v.At, v.Check, v.Err)
		}
	}
}

// printCounters prints the run's event count and the barrier counters, with
// the lookahead when a trunk is cut, and the kernel counters, summed over
// shards.
func printCounters(w io.Writer, st arpanet.Stats) {
	fmt.Fprintf(w, "events      %d\n", st.Events)
	b := st.Barrier
	fmt.Fprintf(w, "barrier     %d windows, %d lookahead-cut, %d wires, %d critical events, bound %.2fx",
		b.Windows, b.EndedByLookahead, b.WiresDelivered, b.CriticalEvents, float64(st.Events)/float64(max(b.CriticalEvents, 1)))
	if st.Lookahead > 0 {
		fmt.Fprintf(w, ", lookahead %v", st.Lookahead)
	}
	fmt.Fprintln(w)
	k := st.Kernel
	fmt.Fprintf(w, "kernel      %d slots, %d buckets, width %dus, %d retunes, ladder %.2f%% of fires, %d front-sorted\n",
		k.Slots, k.Buckets, k.Width, k.Retunes, 100*float64(k.LadderPops)/float64(max(k.Fired, 1)), k.Sorted)
}

// printRoutes prints the size of the static plane's route table beside the
// 2·D·N bytes of a table holding every node's line toward every one of the D
// destinations.
func printRoutes(w io.Writer, st arpanet.Stats) {
	r := st.Routes
	fmt.Fprintf(w, "routes      %d entries, %d bytes, dense 2·D·N %d bytes\n", r.Entries, r.Bytes, r.DenseBytes)
}

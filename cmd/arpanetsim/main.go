// Command arpanetsim reproduces the paper's Table 1: the network-wide
// performance indicators of the ARPANET before (D-SPF, May 1987 traffic)
// and after (HN-SPF, August 1987 traffic, +13%) the installation of the
// revised metric.
//
//	arpanetsim                     # the before/after study
//	arpanetsim -metric hnspf       # a single run
//	arpanetsim -traffic 500 -seconds 900
//	arpanetsim -background 28000   # hybrid mode: 28 Mbps fluid background
//
// The topology is the synthetic ARPANET-like network (see DESIGN.md); the
// absolute numbers therefore differ from the paper's, but the comparisons
// — who wins each row, by roughly what factor — are the reproduction
// target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	arpanet "repro"
	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("arpanetsim: ")
	var (
		metricName = flag.String("metric", "both", "hnspf, dspf, minhop, bf1969, or both (the before/after study; D-SPF with -shards -adaptive)")
		// 280 kbps plays the role of the paper's May-1987 peak-hour load
		// (366 kbps over 71 trunks) on this 44-trunk topology: heavy enough
		// that D-SPF's oscillations dominate, light enough that HN-SPF
		// carries nearly everything. See EXPERIMENTS.md for the calibration.
		trafficK = flag.Float64("traffic", 280, "offered internode traffic in kbps ('May-1987' level)")
		growth   = flag.Float64("growth", 413.99/366.26, "traffic multiplier for the after run")
		seconds  = flag.Float64("seconds", 600, "measured simulation time")
		warmup   = flag.Float64("warmup", 100, "warmup time before measurement")
		seed     = flag.Int64("seed", 1987, "random seed")
		seeds    = flag.Int("seeds", 1, "number of independent seeds to average over")
		asJSON   = flag.Bool("json", false, "emit reports as JSON instead of the table")
		topoName = flag.String("topology", "arpanet", "arpanet, milnet, or (with -shards) hier:<R>x<P> / waxman:<N>")
		scenFile = flag.String("scenario", "", "fault-injection script to run instead of the Table 1 study")
		shardsN  = flag.Int("shards", 0, "run the sharded simulator with this many shards (0 = Table 1 study)")
		rate     = flag.Float64("rate", 1.0, "per-node packet rate for -shards mode (pkts/sec)")
		dests    = flag.Int("dests", 3, "destinations per source for -shards mode")
		radius   = flag.Int("radius", 0, "destination locality radius in hops for -shards mode (0 = uniform)")
		adaptive = flag.Bool("adaptive", false, "with -shards: route by the adaptive plane (-metric hnspf/dspf/minhop; bf1969 falls back to the unsharded engine)")
		// Hybrid fluid/packet mode: the background demand is carried as
		// fluid flows superposed onto the trunks' measured state instead of
		// being simulated packet by packet, so Table-1 experiments run at
		// offered loads far past what event-by-event simulation can afford.
		backgroundK = flag.Float64("background", 0, "fluid background demand in kbps, gravity-shaped (0 = pure packet engine)")
		bgEpochSecs = flag.Float64("background-epoch", 10, "fluid re-routing epoch in seconds (with -background)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit, after a GC (with -shards the simulator is still live in it)")
	)
	flag.Parse()
	if *seeds < 1 {
		log.Fatal("-seeds must be >= 1")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	kinds, err := metricKinds(*metricName)
	if err == nil {
		err = numberFlag(flag.CommandLine)
	}
	if err == nil {
		err = checkFlags(set, *shardsN, *adaptive, *scenFile, *backgroundK, len(kinds))
	}
	var shardCfg shard.Config
	if err == nil && *shardsN > 0 {
		spec := *topoName
		if spec == "arpanet" {
			spec = "hier:8x16" // the Table 1 maps are too small to shard usefully
		}
		var g *topology.Graph
		if g, err = parseGenTopology(spec, *seed); err == nil {
			shardCfg = shardConfig(*shardsN, g, *rate, *dests, *radius, *seed, *adaptive, kinds[0])
			err = shardCfg.Validate()
		}
	}
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	finish := func(live any) {
		if err := stopProfiles(live); err != nil {
			log.Fatal(err)
		}
	}
	if *shardsN > 0 {
		finish(runSharded(shardCfg, *seconds, *adaptive && kinds[0] == node.BF1969))
		return
	}
	defer finish(nil)
	if *topoName != "arpanet" && *topoName != "milnet" {
		log.Fatalf("unknown topology %q (want arpanet or milnet)", *topoName)
	}
	nc := netChoice{topo: *topoName, bgBPS: *backgroundK * 1000, bgEpoch: *bgEpochSecs}
	if nc.topo == "milnet" && *trafficK == 280 {
		// MILNET's aggregate capacity is smaller; rescale the default load
		// to the equivalent regime (see milnet_test.go).
		*trafficK = 150
	}

	if *scenFile != "" {
		runScenario(nc, *scenFile, kinds, *trafficK*1000, *warmup, *seed, *seeds, *asJSON)
		return
	}

	if len(kinds) == 2 { // "both": the before/after study
		before := runSeeds(nc, kinds[0], *trafficK*1000, *seconds, *warmup, *seed, *seeds)
		after := runSeeds(nc, kinds[1], *trafficK*1000**growth, *seconds, *warmup, *seed, *seeds)
		if *asJSON {
			emitJSON(map[string]arpanet.Report{"before": mean(before), "after": mean(after)})
			return
		}
		printTable1(mean(before), mean(after))
		if *seeds > 1 {
			printSpread(before, after)
		}
		return
	}
	r := runSeeds(nc, kinds[0], *trafficK*1000, *seconds, *warmup, *seed, *seeds)
	if *asJSON {
		emitJSON(mean(r))
		return
	}
	fmt.Print(mean(r).String())
}

// metricKinds maps the -metric flag to the engine's metric kinds, for every
// mode. "both" is the before/after pair, D-SPF first; a mode that runs a
// single metric (-shards) takes the first.
func metricKinds(name string) ([]node.MetricKind, error) {
	switch name {
	case "both":
		return []node.MetricKind{node.DSPF, node.HNSPF}, nil
	case "hnspf":
		return []node.MetricKind{node.HNSPF}, nil
	case "dspf":
		return []node.MetricKind{node.DSPF}, nil
	case "minhop":
		return []node.MetricKind{node.MinHop}, nil
	case "bf1969":
		return []node.MetricKind{node.BF1969}, nil
	default:
		return nil, fmt.Errorf("unknown -metric %q (want hnspf, dspf, minhop, bf1969, or both)", name)
	}
}

// numberFlag rejects a number no mode can mean: NaN, which flag.Float64
// parses happily and sim.FromSeconds panics on; anything below zero, which
// panics in traffic.Gravity (-traffic, -growth) or silently runs something
// else (no measured time, no warm-up, uniform destinations, no background,
// -shards -1 the Table 1 study); and a fluid epoch of zero, the default one.
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
		case v < 0:
			err = fmt.Errorf("-%s %s is negative", f.Name, f.Value)
		case v == 0 && f.Name == "background-epoch":
			err = errors.New("-background-epoch must be positive")
		}
	})
	return err
}

// checkFlags rejects a flag that the chosen mode never reads: setting one
// is an error, not a silent no-op (`-shards 2 -scenario flap.scn` used to
// run no script, `-shards 2 -seeds 5` one seed). set holds the flags given
// on the command line (flag.Visit), so defaults never count; kinds is how
// many metrics -metric named.
func checkFlags(set map[string]bool, shards int, adaptive bool, scenario string, backgroundK float64, kinds int) error {
	mode := "without -shards (the Table 1 study is always adaptive)"
	ignored := []string{"rate", "dests", "radius", "adaptive"}
	switch {
	case shards > 0:
		mode = "with -shards"
		ignored = []string{"scenario", "background", "background-epoch", "seeds", "json", "traffic", "growth", "warmup"}
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
	case shards > 0 && !adaptive && set["metric"]:
		return errors.New("-metric has no effect with -shards unless -adaptive is set (static routes otherwise)")
	case shards <= 0 && set["background-epoch"] && backgroundK <= 0:
		return errors.New("-background-epoch has no effect without -background")
	case shards <= 0 && scenario == "" && kinds == 1 && set["growth"]:
		return errors.New("-growth has no effect with a single -metric (it scales the after run of -metric both)")
	}
	return nil
}

// apiMetric names each engine metric kind in the public API, which the
// Table 1 study runs through.
var apiMetric = map[node.MetricKind]arpanet.Metric{
	node.HNSPF:  arpanet.HNSPF,
	node.DSPF:   arpanet.DSPF,
	node.MinHop: arpanet.MinHop,
	node.BF1969: arpanet.BF1969,
}

// netChoice is the -topology/-background selection every run of one
// invocation shares.
type netChoice struct {
	topo    string  // "arpanet" or "milnet"
	bgBPS   float64 // fluid background demand (0 = pure packet engine)
	bgEpoch float64 // fluid re-routing epoch, seconds
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

func runSeeds(nc netChoice, kind node.MetricKind, bps, seconds, warmup float64, seed int64, n int) []arpanet.Report {
	out := make([]arpanet.Report, n)
	for i := range out {
		out[i] = run(nc, apiMetric[kind], bps, seconds, warmup, seed+int64(i))
	}
	return out
}

// mean averages the headline indicators over several reports (counters are
// summed proportionally by averaging too — they share a duration).
func mean(rs []arpanet.Report) arpanet.Report {
	out := rs[0]
	if len(rs) == 1 {
		return out
	}
	n := float64(len(rs))
	var traffic, delay, upd, period, actual, min, offered, routing, meanU, maxU, deliv float64
	var drops int64
	for _, r := range rs {
		traffic += r.InternodeTrafficKbps
		delay += r.RoundTripDelayMs
		upd += r.UpdatesPerTrunkSec
		period += r.UpdatePeriodPerNode
		actual += r.ActualPathHops
		min += r.MinPathHops
		offered += r.OfferedKbps
		routing += r.RoutingKbps
		meanU += r.MeanLinkUtilization
		maxU += r.MaxLinkUtilization
		deliv += r.DeliveredRatio
		drops += r.BufferDrops
	}
	out.InternodeTrafficKbps = traffic / n
	out.RoundTripDelayMs = delay / n
	out.UpdatesPerTrunkSec = upd / n
	out.UpdatePeriodPerNode = period / n
	out.ActualPathHops = actual / n
	out.MinPathHops = min / n
	if out.MinPathHops > 0 {
		out.PathRatio = out.ActualPathHops / out.MinPathHops
	}
	out.OfferedKbps = offered / n
	out.RoutingKbps = routing / n
	out.MeanLinkUtilization = meanU / n
	out.MaxLinkUtilization = maxU / n
	out.DeliveredRatio = deliv / n
	out.BufferDrops = drops / int64(len(rs))
	return out
}

func printSpread(before, after []arpanet.Report) {
	sd := func(rs []arpanet.Report, f func(arpanet.Report) float64) float64 {
		m := 0.0
		for _, r := range rs {
			m += f(r)
		}
		m /= float64(len(rs))
		v := 0.0
		for _, r := range rs {
			d := f(r) - m
			v += d * d
		}
		return math.Sqrt(v / float64(len(rs)-1))
	}
	delay := func(r arpanet.Report) float64 { return r.RoundTripDelayMs }
	drops := func(r arpanet.Report) float64 { return float64(r.BufferDrops) }
	fmt.Printf("\nSpread over %d seeds (standard deviation):\n", len(before))
	fmt.Printf("  Round Trip Delay (ms): D-SPF ±%.1f, HN-SPF ±%.1f\n",
		sd(before, delay), sd(after, delay))
	fmt.Printf("  Dropped Packets:       D-SPF ±%.0f, HN-SPF ±%.0f\n",
		sd(before, drops), sd(after, drops))
}

func run(nc netChoice, m arpanet.Metric, bps, seconds, warmup float64, seed int64) arpanet.Report {
	topo := arpanet.Arpanet1987()
	weights := arpanet.ArpanetWeights()
	if nc.topo == "milnet" {
		topo = arpanet.Milnet1987()
		weights = arpanet.MilnetWeights()
	}
	tr := topo.GravityTraffic(weights, bps)
	cfg := arpanet.SimConfig{Metric: m, Seed: seed, WarmupSeconds: warmup}
	if nc.bgBPS > 0 {
		cfg.Background = topo.GravityTraffic(weights, nc.bgBPS)
		cfg.BackgroundEpochSeconds = nc.bgEpoch
	}
	s := arpanet.NewSimulation(topo, tr, cfg)
	s.RunSeconds(warmup + seconds)
	return s.Report()
}

func printTable1(before, after arpanet.Report) {
	fmt.Println("Table 1: Network-wide Performance Indicators")
	fmt.Println("(paper: ARPANET May 87 / Aug 87; here: simulated before/after)")
	fmt.Println()
	fmt.Printf("  %-30s %12s %12s\n", "", "D-SPF", "HN-SPF")
	row := func(name string, b, a float64) {
		fmt.Printf("  %-30s %12.2f %12.2f\n", name, b, a)
	}
	row("Internode Traffic (kbps)", before.InternodeTrafficKbps, after.InternodeTrafficKbps)
	row("Round Trip Delay (ms)", before.RoundTripDelayMs, after.RoundTripDelayMs)
	row("Rtng. Updates per Trunk/sec", before.UpdatesPerTrunkSec, after.UpdatesPerTrunkSec)
	row("Update Period per Node (sec)", before.UpdatePeriodPerNode, after.UpdatePeriodPerNode)
	row("Internode Actual Path (hops)", before.ActualPathHops, after.ActualPathHops)
	row("Internode Minimum Path", before.MinPathHops, after.MinPathHops)
	row("Path Ratio (Actual/Min.)", before.PathRatio, after.PathRatio)
	fmt.Println()
	fmt.Printf("  %-30s %12d %12d\n", "Dropped Packets (buffers)", before.BufferDrops, after.BufferDrops)
	row("Delivered Ratio", before.DeliveredRatio, after.DeliveredRatio)
	row("Mean Link Utilization", before.MeanLinkUtilization, after.MeanLinkUtilization)
	row("Routing Overhead (kbps)", before.RoutingKbps, after.RoutingKbps)
	fmt.Println()
	fmt.Println("Paper's measured values for reference:")
	fmt.Println("  Traffic 366.26→413.99 kbps, Delay 635.45→338.59 ms,")
	fmt.Println("  Updates/Trunk/sec 2.04→1.74, Update Period 22.06→26.32 s,")
	fmt.Println("  Actual Path 4.91→3.70, Min Path 3.97→3.24, Ratio 1.24→1.14")
}

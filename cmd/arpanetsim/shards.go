package main

// The -shards mode: run the conservative-sync sharded simulator instead of
// the Table 1 study, on the ARPANET or MILNET map or a generated large
// topology.
//
//	arpanetsim -shards 4 -topology hier:32x32 -seconds 30
//	arpanetsim -shards 2 -topology waxman:500 -rate 2 -dests 4
//	arpanetsim -shards 4 -topology hier:32x32 -adaptive -metric hnspf
//	arpanetsim -shards 2 -adaptive -metric hnspf -scenario examples/flapping/utah-collins.scn
//
// By default the sharded runner routes by one static table over fixed link
// costs; -adaptive switches it to the full measurement → flood →
// incremental-SPF plane under the chosen -metric, which is how the
// hier:32x32 Table-1-style study in EXPERIMENTS.md is produced. BF-1969 is
// a distance-vector protocol implemented only by the packet-level engine, so
// that leg runs unsharded over the identical offered traffic. With
// -scenario the adaptive plane runs a fault script instead of -seconds: its
// trunk failures and repairs, audited at its checkpoints
// (scenario.RunSharded).

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	arpanet "repro"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
)

// maxWaxmanNodes bounds waxman:<N>: the generator weighs every pair of nodes,
// so 2^14 is already 10^8 pairs. hier:<R>x<P> is linear and bounded by what
// the sharded engine can route, shard.MaxStaticNodes.
const maxWaxmanNodes = 1 << 14

// parseGenTopology builds the -shards topology: the "arpanet" or "milnet"
// map, as in every mode, or a generated one from a "hier:RxP" or "waxman:N"
// spec. The spec is outside input: a size no engine could run is refused
// before anything is built, and what a generator itself refuses — a hub
// with more lines than 16-bit line numbers name — comes back as an error.
func parseGenTopology(spec string, seed int64) (g *topology.Graph, err error) {
	switch spec {
	case "arpanet":
		return topology.Arpanet(), nil
	case "milnet":
		return topology.Milnet(), nil
	}
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology %q: want hier:<regions>x<perRegion> or waxman:<nodes>", spec)
	}
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("topology %q: %v", spec, r)
		}
	}()
	switch kind {
	case "hier":
		rs, ps, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("topology %q: want hier:<regions>x<perRegion>", spec)
		}
		regions, err := strconv.Atoi(rs)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		per, err := strconv.Atoi(ps)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		if regions < 2 || per < 3 {
			return nil, fmt.Errorf("topology %q: need >= 2 regions and >= 3 nodes per region", spec)
		}
		if regions > shard.MaxStaticNodes/per {
			return nil, fmt.Errorf("topology %q: more than %d nodes", spec, shard.MaxStaticNodes)
		}
		return topology.Hierarchical(regions, per, seed), nil
	case "waxman":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %v", spec, err)
		}
		if n < 2 || n > maxWaxmanNodes {
			return nil, fmt.Errorf("topology %q: need 2 to %d nodes", spec, maxWaxmanNodes)
		}
		return topology.Waxman(n, 0.6, 0.12, seed, topology.T56, topology.T112), nil
	default:
		return nil, fmt.Errorf("topology %q: unknown generator %q (want hier or waxman)", spec, kind)
	}
}

// shardedRun checks the -shards invocation with the other flags and returns
// the run, which returns the simulator it ran for the -memprofile heap
// profile. A script (-scenario) runs through scenario.RunSharded.
func shardedRun(o *options, metric arpanet.Metric, script []byte) (func(io.Writer) (any, error), error) {
	g, err := parseGenTopology(o.topology, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := shardConfig(o.shards, g, o.rate, o.dests, o.radius, o.seed, o.adaptive, metric)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case script != nil:
		return func(w io.Writer) (any, error) { return runShardedScript(w, cfg, o.scenario, script) }, nil
	case o.adaptive && metric == arpanet.BF1969:
		return func(w io.Writer) (any, error) { return runShardedBF1969(w, cfg, o.seconds) }, nil
	}
	return func(w io.Writer) (any, error) { return runSharded(w, cfg, o.seconds) }, nil
}

// shardConfig is the configuration the -shards mode runs; shardedRun
// validates it before anything starts. The BF-1969 leg runs unsharded, so
// for it this is the one-shard static probe that draws its traffic.
func shardConfig(shards int, g *topology.Graph, rate float64, dests, radius int, seed int64, adaptive bool, metric node.MetricKind) shard.Config {
	cfg := shard.Config{
		Graph:      g,
		Shards:     shards,
		Seed:       seed,
		PktRate:    rate,
		Dests:      dests,
		DestRadius: radius,
	}
	switch {
	case adaptive && metric == node.BF1969:
		cfg.Shards = 1
	case adaptive:
		cfg.Metric = metric
		cfg.Adaptive = true
	}
	return cfg
}

// runSharded runs cfg and writes its report and counters.
func runSharded(w io.Writer, cfg shard.Config, seconds float64) (*shard.Sim, error) {
	s, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	printHeader(w, cfg, s)
	s.Run(sim.FromSeconds(seconds))
	if err := s.Audit(); err != nil {
		return s, fmt.Errorf("conservation audit failed: %w", err)
	}
	fmt.Fprint(w, s.Report().String())
	printCounters(w, s)
	if !cfg.Adaptive {
		printRoutes(w, s)
	}
	return s, nil
}

// runShardedScript runs the script at path on cfg's engine and writes the
// header, the report, the event count, the checkpoints and every violation.
// The barrier and kernel lines are left out: they vary with the partition,
// and apart from the header this output does not. A violation is an error,
// after the output.
func runShardedScript(w io.Writer, cfg shard.Config, path string, script []byte) (*shard.Sim, error) {
	sc, err := scenario.Parse(bytes.NewReader(script))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, res, err := scenario.RunSharded(cfg, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	printHeader(w, cfg, s)
	fmt.Fprintf(w, "Scenario %q: %.0f s, %d events\n", sc.Name, sc.Duration.Seconds(), len(sc.Events))
	fmt.Fprint(w, res.Report.String())
	fmt.Fprintf(w, "events      %d\n", s.Fired())
	quiet := 0
	for _, cp := range res.Checkpoints {
		quiet += cp.QuietOrigins
	}
	fmt.Fprintf(w, "checkpoints %d, %d of %d origins with no update in flight (convergence audited)\n",
		len(res.Checkpoints), quiet, len(res.Checkpoints)*cfg.Graph.NumNodes())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION at %v [%s]: %s\n", v.At, v.Check, v.Err)
	}
	if n := len(res.Violations); n > 0 {
		return s, fmt.Errorf("%s: %d invariant violations", path, n)
	}
	return s, nil
}

// printHeader prints the line that opens every sharded run's output: the
// map, the shard count and, when a trunk is cut, the lookahead.
func printHeader(w io.Writer, cfg shard.Config, s *shard.Sim) {
	g := cfg.Graph
	fmt.Fprintf(w, "sharded run: %d nodes, %d trunks, %d shards", g.NumNodes(), g.NumTrunks(), cfg.Shards)
	if cfg.Adaptive {
		fmt.Fprintf(w, ", adaptive %v", cfg.Metric)
	}
	if la := s.Lookahead(); la > 0 {
		fmt.Fprintf(w, ", lookahead %v", la)
	}
	fmt.Fprintln(w)
}

// printCounters prints the run's event count and the barrier and kernel
// counters, summed over shards.
func printCounters(w io.Writer, s *shard.Sim) {
	fmt.Fprintf(w, "events      %d\n", s.Fired())
	b := s.BarrierStats()
	fmt.Fprintf(w, "barrier     %d windows, %d lookahead-cut, %d wires, %d critical events, bound %.2fx\n",
		b.Windows, b.EndedByLookahead, b.WiresDelivered, b.CriticalEvents, float64(s.Fired())/float64(max(b.CriticalEvents, 1)))
	k := s.KernelStats()
	fmt.Fprintf(w, "kernel      %d slots, %d buckets, width %dus, %d retunes, ladder %.2f%% of fires, %d front-sorted\n",
		k.Slots, k.Buckets, k.Width, k.Retunes, 100*float64(k.LadderPops)/float64(max(k.Fired, 1)), k.Sorted)
}

// printRoutes prints the size of the static plane's route table beside the
// 2·D·N bytes of a table holding every node's line toward every one of the D
// destinations.
func printRoutes(w io.Writer, s *shard.Sim) {
	r := s.RouteStats()
	fmt.Fprintf(w, "routes      %d entries, %d bytes, dense 2·D·N %d bytes\n",
		r.Entries, r.Bytes, r.DenseBytes)
}

// runShardedBF1969 is the BF-1969 leg of the large-topology study. The 1969
// metric is distance-vector — periodic neighbor table exchanges, not
// link-state floods — and only the packet-level engine implements it, so it
// runs on one kernel. To stay comparable, it offers the sharded runs' own
// packets: a throwaway static shard.Sim built from cfg draws the per-node
// destination sets from the same seed, and its Matrix, run from the same
// seed, draws every packet the sharded sources do.
func runShardedBF1969(w io.Writer, cfg shard.Config, seconds float64) (*network.Network, error) {
	g := cfg.Graph
	probe, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "unsharded run: %d nodes, %d trunks, Bellman-Ford 1969 (distance-vector; no shard barrier)\n",
		g.NumNodes(), g.NumTrunks())
	n := network.New(network.Config{Graph: g, Matrix: probe.Matrix(), Metric: node.BF1969, Seed: cfg.Seed})
	n.Run(sim.FromSeconds(seconds))
	if err := n.Conservation().Err(); err != nil {
		return n, fmt.Errorf("conservation audit failed: %w", err)
	}
	fmt.Fprint(w, n.Report().String())
	return n, nil
}

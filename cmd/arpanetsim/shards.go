package main

// The per-node mode: per-node traffic, on the ARPANET or MILNET map or a
// generated large topology. -rate, -dests, -radius, -adaptive or a generated
// -topology choose it; without them the command runs the Table 1 study or
// -scenario on a gravity matrix instead (main.go). -shards splits either.
//
//	arpanetsim -shards 4 -topology hier:32x32 -seconds 30
//	arpanetsim -shards 2 -topology waxman:500 -rate 2 -dests 4
//	arpanetsim -shards 4 -topology hier:32x32 -adaptive -metric hnspf
//	arpanetsim -shards 2 -adaptive -metric hnspf -scenario examples/flapping/utah-collins.scn
//	arpanetsim -topology hier:32x32 -adaptive -metric bf1969
//
// By default the per-node mode routes by one static table over fixed link
// costs; -adaptive switches it to the full measurement → flood →
// incremental-SPF plane under the chosen -metric, or under bf1969 to the
// 1969 distance-vector exchange, which is how the hier:32x32
// Table-1-style study in EXPERIMENTS.md is produced. With -scenario the
// adaptive plane runs a fault script instead of -seconds, audited at its
// checkpoints.

import (
	"fmt"
	"io"

	arpanet "repro"
)

// shardSpec is the run the per-node flags describe on topo, under metric
// (read with -adaptive only), for script (nil: -seconds).
func shardSpec(o *options, topo *arpanet.Topology, metric arpanet.Metric, script []byte) arpanet.Spec {
	s := arpanet.Spec{Topology: topo, Shards: o.shards, Seed: o.seed, Script: string(script), StaticRoutes: !o.adaptive,
		NodeTraffic: &arpanet.NodeTraffic{Rate: o.rate, Dests: o.dests, Radius: o.radius}}
	if o.adaptive {
		s.Metric = metric
	}
	if script == nil {
		s.Seconds = o.seconds
	}
	return s
}

// sharded runs s and writes the header, the report, the event count and
// either the checkpoints (with a script) or the barrier, kernel and, on the
// static plane, routes counters. The barrier and
// kernel lines are left out with a script: they vary with the partition, and
// apart from the header that output does not. A violation is an error,
// after the output.
func sharded(w io.Writer, s arpanet.Spec) (arpanet.Result, error) {
	res, err := arpanet.Run(s)
	if err != nil {
		return res, err
	}
	printHeader(w, s, res.Stats)
	if sc := res.Script; s.Script != "" {
		fmt.Fprintf(w, "Scenario %q: %.0f s, %d events\n", sc.Name, sc.Duration.Seconds(), len(sc.Events))
	}
	fmt.Fprint(w, res.Report.String())
	if s.Script != "" {
		fmt.Fprintf(w, "events      %d\n", res.Stats.Events)
		quiet := 0
		for _, cp := range res.Checkpoints {
			quiet += cp.QuietOrigins
		}
		fmt.Fprintf(w, "checkpoints %d, %d of %d origins with no update in flight (convergence audited)\n",
			len(res.Checkpoints), quiet, len(res.Checkpoints)*s.Topology.NumNodes())
	} else {
		printCounters(w, res.Stats)
		if s.StaticRoutes {
			printRoutes(w, res.Stats)
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION at %v [%s]: %s\n", v.At, v.Check, v.Err)
	}
	if n := len(res.Violations); n > 0 {
		return res, fmt.Errorf("%d invariant violations", n)
	}
	return res, nil
}

// printHeader prints the line that opens every per-node run's output: the
// map, the shard count and, when a trunk is cut, the lookahead.
func printHeader(w io.Writer, s arpanet.Spec, st arpanet.Stats) {
	g := s.Topology
	fmt.Fprintf(w, "sharded run: %d nodes, %d trunks, %d shards", g.NumNodes(), g.NumTrunks(), max(s.Shards, 1))
	if !s.StaticRoutes {
		fmt.Fprintf(w, ", adaptive %v", s.Metric)
	}
	if st.Lookahead > 0 {
		fmt.Fprintf(w, ", lookahead %v", st.Lookahead)
	}
	fmt.Fprintln(w)
}

// printCounters prints the run's event count and the barrier and kernel
// counters, summed over shards.
func printCounters(w io.Writer, st arpanet.Stats) {
	fmt.Fprintf(w, "events      %d\n", st.Events)
	b := st.Barrier
	fmt.Fprintf(w, "barrier     %d windows, %d lookahead-cut, %d wires, %d critical events, bound %.2fx\n",
		b.Windows, b.EndedByLookahead, b.WiresDelivered, b.CriticalEvents, float64(st.Events)/float64(max(b.CriticalEvents, 1)))
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

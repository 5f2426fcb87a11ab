package main

// The -scenario mode: run a fault-injection script (internal/scenario
// format) over the selected topology and metric, one independent run per
// seed, and report the per-seed outcomes plus any invariant violations.
//
//	arpanetsim -scenario flap.scn -metric hnspf -seeds 5
//
// The script supplies the duration and the event timeline; -traffic,
// -warmup, -seed and -topology keep their usual meaning. The process exits
// with status 1 when any seed violates a simulator invariant (packet
// conservation, single transmitter per link, post-flood convergence).

import (
	"fmt"
	"log"
	"os"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func runScenario(nc netChoice, path string, metrics []node.MetricKind, bps, warmup float64, seed int64, nSeeds int, asJSON bool) {
	sc, err := scenario.ParseFile(path)
	if err != nil {
		log.Fatal(err)
	}
	g := topology.Arpanet()
	weights := topology.ArpanetWeights()
	if nc.topo == "milnet" {
		g = topology.Milnet()
		weights = topology.MilnetWeights()
	}
	m := traffic.Gravity(g, weights, bps)
	seeds := make([]int64, nSeeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}

	violated := false
	byMetric := map[string][]scenario.Result{}
	for _, metric := range metrics {
		cfg := scenario.Config{
			Graph:  g,
			Matrix: m,
			Metric: metric,
			Warmup: sim.FromSeconds(warmup),
		}
		if nc.bgBPS > 0 {
			// Hybrid mode: scripts may then use the 'surge background'
			// directive against this fluid demand.
			cfg.Background = traffic.Gravity(g, weights, nc.bgBPS)
			cfg.BackgroundEpoch = sim.FromSeconds(nc.bgEpoch)
		}
		results, err := scenario.RunBatch(cfg, sc, seeds)
		if err != nil {
			log.Fatal(err)
		}
		byMetric[metric.String()] = results
		for _, r := range results {
			if len(r.Violations) > 0 {
				violated = true
			}
		}
	}
	if asJSON {
		emitJSON(byMetric)
	} else {
		printScenario(sc, byMetric, metrics)
	}
	if violated {
		os.Exit(1)
	}
}

func printScenario(sc *scenario.Scenario, byMetric map[string][]scenario.Result, order []node.MetricKind) {
	fmt.Printf("Scenario %q: %.0f s, %d events\n", sc.Name, sc.Duration.Seconds(), len(sc.Events))
	for _, metric := range order {
		results := byMetric[metric.String()]
		fmt.Printf("\n%s\n", metric)
		fmt.Printf("  %6s %10s %10s %10s %10s %12s\n",
			"seed", "delivered", "buf-drops", "outages", "no-route", "checkpoints")
		for _, r := range results {
			fmt.Printf("  %6d %10.4f %10d %10d %10d %12d\n",
				r.Seed, r.Report.DeliveredRatio, r.Report.BufferDrops,
				r.Report.OutageDrops, r.Report.NoRouteDrops, len(r.Checkpoints))
		}
		for _, r := range results {
			for _, v := range r.Violations {
				fmt.Printf("  VIOLATION seed %d at %v [%s]: %s\n", r.Seed, v.At, v.Check, v.Err)
			}
			if r.StoppedAt != 0 {
				fmt.Printf("  seed %d frozen at %v\n", r.Seed, r.StoppedAt)
			}
		}
	}
}

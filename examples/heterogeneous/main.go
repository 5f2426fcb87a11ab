// Heterogeneous trunking (§4.4, §4.5): a two-hop terrestrial path competes
// with a direct 56 kb/s satellite trunk.
//
// Under the delay metric the satellite's 260 ms propagation makes it look
// ~25× worse than a terrestrial hop, so it sits idle even while the
// terrestrial path saturates — the wasted-bandwidth defect §4.4 fixes.
// Under the revised metric the satellite costs less than one extra hop, so
// it is a usable short path: "short paths incorporating satellite lines do
// not appear as unfavorable relative to longer paths consisting entirely
// of terrestrial lines as they do with D-SPF". The price is propagation
// delay — the revised metric "will not always result in shortest-delay
// paths" (§1) — the payoff is that the satellite's capacity is actually
// used when the network is loaded.
//
// The overload row also demonstrates §4.5: one large SRC→DST flow cannot
// be split by single-path routing, so once demand exceeds any single
// trunk, both metrics drop traffic; load-sharing works through many small
// flows, not within one big one.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	arpanet "repro"
)

// Topology: SRC and DST joined by a two-hop terrestrial path through MID
// and by a direct 56 kb/s satellite trunk.
//
//	SRC ──56T── MID ──56T── DST
//	  └────────56S (satellite)───────┘
func build() *arpanet.Topology {
	t := arpanet.NewTopology()
	for _, n := range []string{"SRC", "MID", "DST"} {
		t.AddNode(n)
	}
	t.AddTrunk("SRC", "MID", arpanet.T56, 0.010)
	t.AddTrunk("MID", "DST", arpanet.T56, 0.010)
	t.AddTrunk("SRC", "DST", arpanet.S56, 0.260)
	return t
}

func main() {
	fmt.Println("Idle costs as each metric sees them:")
	fmt.Printf("  HN-SPF: terrestrial path %.0f+%.0f units, satellite %.0f units (usable)\n",
		arpanet.NewLinkMetric(arpanet.T56, 0.010).Floor(),
		arpanet.NewLinkMetric(arpanet.T56, 0.010).Floor(),
		arpanet.NewLinkMetric(arpanet.S56, 0.260).Floor())
	fmt.Printf("  D-SPF:  satellite ≈ %.0f× one terrestrial hop (shunned)\n\n",
		arpanet.MetricCurve(arpanet.DSPF, arpanet.S56, 0.260, 0))

	fmt.Println("metric    load(kbps)  terrestrial-util  satellite-util  rt-delay(ms)  drops")
	for _, m := range []arpanet.Metric{arpanet.DSPF, arpanet.HNSPF} {
		for _, kbps := range []float64{20, 45, 80} {
			terr, sat, rep := run(m, kbps*1000)
			fmt.Printf("%-8s %9.0f %17.2f %15.2f %13.0f %6d\n",
				m, kbps, terr.MeanY(), sat.MeanY(), rep.RoundTripDelayMs, rep.BufferDrops)
		}
	}
	fmt.Println()
	fmt.Println("D-SPF gives the lowest delay while the terrestrial path holds, but")
	fmt.Println("drives it to ~80% utilization with the satellite idle. HN-SPF uses")
	fmt.Println("the satellite as a short path and spreads the load across both —")
	fmt.Println("higher delay, far more usable capacity. At 80 kbps a single flow")
	fmt.Println("exceeds any one trunk and single-path routing cannot split it (§4.5).")
}

func run(m arpanet.Metric, bps float64) (terr, sat *arpanet.Series, rep arpanet.Report) {
	topo := build()
	tm := topo.NewTraffic()
	tm.SetRate("SRC", "DST", bps)
	tm.SetRate("DST", "SRC", bps/4) // light reverse chatter
	res, err := arpanet.Run(arpanet.Spec{
		Topology: topo, Traffic: tm, Metric: m, Seed: 7, WarmupSeconds: 100, Seconds: 400,
		Track: [][2]string{{"SRC", "MID"}, {"SRC", "DST"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Tracked[0].Utilization, res.Tracked[1].Utilization, res.Report
}

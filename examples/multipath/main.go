// Multipath: the §4.5 extension. Single-path routing cannot split one
// large flow — "to accomplish load-sharing when network traffic is
// dominated by several large flows would require a multi-path routing
// algorithm" — so a flow bigger than any one trunk drops no matter what
// the metric does. Near-equal-cost multipath forwarding spreads the flow
// over parallel shortest paths.
//
//	go run ./examples/multipath
package main

import (
	"fmt"
	"log"

	arpanet "repro"
)

func main() {
	fmt.Println("One 89.6 kbps flow (1.6× a 56 kb/s trunk) across a 2×2 grid")
	fmt.Println("with two equal 2-hop paths:")
	fmt.Println()
	fmt.Printf("%-12s %10s %10s %8s\n", "forwarding", "delivered", "drops", "rt(ms)")
	for _, mp := range []bool{false, true} {
		r := run(mp)
		name := "single-path"
		if mp {
			name = "multipath"
		}
		fmt.Printf("%-12s %9.1f%% %10d %8.0f\n",
			name, 100*r.DeliveredRatio, r.BufferDrops, r.RoundTripDelayMs)
	}
	fmt.Println()
	fmt.Println("The single-path run pins the whole flow on one path (~62% gets")
	fmt.Println("through); multipath splits it per packet and delivers everything.")
	fmt.Println("Many small flows, by contrast, are load-shared by the metric")
	fmt.Println("itself — see go run ./cmd/figures -fig 1.")
}

func run(multipath bool) arpanet.Report {
	topo := arpanet.Grid(2, 2, arpanet.T56)
	tr := topo.NewTraffic()
	tr.SetRate("R0.C0", "R1.C1", 1.6*56_000)
	res, err := arpanet.Run(arpanet.Spec{
		Topology: topo, Traffic: tr, Metric: arpanet.HNSPF, Seed: 3, WarmupSeconds: 60, Seconds: 300, Multipath: multipath,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Report
}

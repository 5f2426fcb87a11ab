// Quickstart: simulate the ARPANET-like network under the revised metric
// and print the Table 1 performance indicators.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	arpanet "repro"
)

func main() {
	// The synthetic July-1987-like topology: 30 PSNs, 44 trunks, mixed
	// 9.6/56 kb/s terrestrial and satellite lines.
	topo := arpanet.Arpanet1987()
	fmt.Printf("topology: %d PSNs, %d trunks\n", topo.NumNodes(), topo.NumTrunks())

	// A gravity-model peak-hour traffic matrix: 280 kbps of internode
	// traffic spread over every pair, big sites weighted heavier.
	tm := topo.GravityTraffic(arpanet.ArpanetWeights(), 280_000)

	// Run two minutes of simulated peak hour under HN-SPF. The warmup
	// lets routing and queues reach steady state before measuring.
	res, err := arpanet.Run(arpanet.Spec{
		Topology: topo, Traffic: tm, Metric: arpanet.HNSPF, Seed: 1, WarmupSeconds: 60, Seconds: 180,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(res.Report)

	// The revised metric is also usable on its own: feed it a measured
	// delay every ten seconds, flood the cost it reports.
	fmt.Println()
	m := arpanet.NewLinkMetric(arpanet.T56, 0.010)
	fmt.Printf("fresh 56 kb/s link advertises %v units (its ceiling; it eases in)\n", m.Cost())
	for i := 0; i < 6; i++ {
		cost, report := m.Update(0.011) // ~idle measured delay
		fmt.Printf("  period %d: cost %v (update generated: %v)\n", i+1, cost, report)
	}
}

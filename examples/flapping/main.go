// Flapping: the §5.4 failure/recovery behavior under fault injection,
// driven by the script utah-collins.scn. The cross-country trunk
// UTAH—COLLINS is failed, repaired, and then flapped (three fast down/up
// cycles) while the run audits packet conservation, the single-transmitter
// invariant and post-flood convergence at every checkpoint.
//
// The paper's claim (§5.4): a recovered HN-SPF link re-advertises its
// maximum cost and "eases in" — traffic returns a little at a time, one
// movement limit per 10-second period — where D-SPF immediately advertises
// a small measured delay and yanks every cross-country route back at once.
//
//	go run ./examples/flapping
//
// The same script runs from the command line, with the same numbers:
//
//	go run ./cmd/arpanetsim -scenario examples/flapping/utah-collins.scn -traffic 250 -warmup 60
package main

import (
	_ "embed"
	"fmt"
	"log"

	arpanet "repro"
)

// script fails UTAH—COLLINS at t=200, repairs it at t=400 and flaps it
// three times from t=550, with audits every 50 s.
//
//go:embed utah-collins.scn
var script string

func main() {
	log.SetFlags(0)
	topo := arpanet.Arpanet1987()
	tm := topo.GravityTraffic(arpanet.ArpanetWeights(), 250_000)

	for _, metric := range []arpanet.Metric{arpanet.HNSPF, arpanet.DSPF} {
		res, err := arpanet.Run(arpanet.Spec{
			Topology: topo, Traffic: tm, Metric: metric, Seed: 1987, WarmupSeconds: 60,
			Script: script, Track: [][2]string{{"UTAH", "COLLINS"}},
		})
		if err != nil {
			log.Fatal(err)
		}
		cost, util := res.Tracked[0].Cost, res.Tracked[0].Utilization

		fmt.Printf("=== %s ===\n", metric)
		fmt.Println("t(s)   UTAH->COLLINS cost   utilization")
		// The repair is at t=400; watch the advertised cost walk (HN-SPF)
		// or jump (D-SPF) over the following measurement periods.
		for _, at := range []float64{195, 250, 401, 420, 440, 460, 480, 540} {
			fmt.Printf("%4.0f %20.1f %13.2f\n", at, seriesAt(cost, at), seriesAt(util, at))
		}
		fmt.Printf("delivered %.4f, outage drops %d, buffer drops %d\n",
			res.Report.DeliveredRatio, res.Report.OutageDrops, res.Report.BufferDrops)
		if len(res.Violations) == 0 {
			fmt.Printf("invariants: all %d checkpoints clean\n\n", len(res.Checkpoints))
		} else {
			for _, v := range res.Violations {
				fmt.Printf("VIOLATION at %v [%s]: %s\n", v.At, v.Check, v.Err)
			}
			log.Fatal("invariant violations — the simulator's books do not balance")
		}
	}

	fmt.Println("Under HN-SPF the repaired trunk returns at its ceiling cost and")
	fmt.Println("walks down one movement limit per period — the §5.4 ease-in —")
	fmt.Println("while D-SPF re-advertises a near-propagation delay immediately and")
	fmt.Println("recaptures the cross-country traffic in one step. The flap at")
	fmt.Println("t=550 exercises the failure paths: every packet the outages")
	fmt.Println("destroy lands in the outage-drop ledger, audited above.")
}

// seriesAt returns the series value at the last sample not after t.
func seriesAt(s *arpanet.Series, t float64) float64 {
	v := 0.0
	for i := 0; i < s.Len(); i++ {
		if s.X[i] > t {
			break
		}
		v = s.Y[i]
	}
	return v
}

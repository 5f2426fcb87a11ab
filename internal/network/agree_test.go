package network_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
)

// agreeSeconds is how long each random input runs on both engines.
const agreeSeconds = 60

// agreeSeeds are TestEnginesAgree's inputs: between them they draw the
// ARPANET and MILNET maps and three generated ones (a ring, a Waxman and a
// hierarchical graph), every metric at least once and each SPF metric
// under load.
var agreeSeeds = []int64{2, 3, 5, 6, 10, 26, 84, 147}

// TestEnginesAgree holds the two packet engines to each other on random
// inputs (drawAgreement): a one-shard shard.Sim and a network.Network
// offered its Matrix must render the same Report — Table 1's rows, the
// ledger and the originations — and advertise the same cost on every link,
// every second, through a trunk script whose first failure flushes a user
// packet.
func TestEnginesAgree(t *testing.T) {
	for _, seed := range agreeSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { agree(t, seed) })
	}
}

// FuzzEnginesAgree is TestEnginesAgree over any seed.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) { agree(t, seed) })
}

func agree(t *testing.T, seed int64) {
	cfg, desc := drawAgreement(t, seed)
	t.Log(desc)
	r := network.RunBothEngines(t, cfg, agreeSeconds)
	if r.Conservation.OutageDrops == 0 {
		t.Errorf("ledger %+v: the first failure should flush a user packet", r.Conservation)
	}
}

// drawAgreement draws one input from seed: the map (the ARPANET map, MILNET
// or check.GenTopology's), the metric, a load from light to past saturation,
// and a trunk script. The script's first failure fires one tick after the
// first instant from a drawn time on at which a user packet is on some
// trunk's transmitter, found by stepping a probe run, so the outage flushes
// it on both engines; its repair, and a few other trunks' failures, repairs
// and flaps, each within one measurement period, follow.
func drawAgreement(t *testing.T, seed int64) (shard.Config, string) {
	rng := rand.New(rand.NewSource(seed))
	var topo check.Topo
	switch rng.Intn(3) {
	case 0:
		topo = check.Topo{Desc: "arpanet", G: topology.Arpanet()}
	case 1:
		topo = check.Topo{Desc: "milnet", G: topology.Milnet()}
	default:
		topo = check.GenTopology(rng, 30)
	}
	g := topo.G
	metrics := []node.MetricKind{node.MinHop, node.DSPF, node.HNSPF, node.BF1969}
	cfg := shard.Config{Graph: g, Shards: 1, Seed: seed, Metric: metrics[rng.Intn(len(metrics))], Adaptive: true,
		PktRate: 0.5 * math.Exp2(6*rng.Float64()), Dests: 1 + rng.Intn(4)}

	probe := network.NewNetworkFor(cfg)
	probe.Run(sim.FromSeconds(5 + 15*rng.Float64()))
	k := probe.Kernel()
	flushed := topology.NoLink
	for flushed == topology.NoLink {
		for l := range topology.LinkID(g.NumLinks()) {
			if p := network.Sending(probe.Trunk(l)); p != nil && !p.IsRouting() {
				flushed = l
				break
			}
		}
		if flushed == topology.NoLink && (!k.Step() || k.Now() > agreeSeconds*sim.Second) {
			t.Fatalf("%s: no user packet was ever on a transmitter", topo.Desc)
		}
	}
	down, trunk := k.Now()+1, g.Link(flushed).Trunk
	cfg.Faults = []shard.Fault{{Trunk: trunk, At: down}, {Trunk: trunk, At: down + within(rng), Up: true}}
	for range rng.Intn(3) {
		trunk := rng.Intn(g.NumTrunks())
		at := cfg.Faults[0].At + sim.FromSeconds(float64(agreeSeconds-30)*rng.Float64())
		for range 1 + rng.Intn(3) { // a failure and its repair, or a flap
			at += within(rng) / 3
			cfg.Faults = append(cfg.Faults, shard.Fault{Trunk: trunk, At: at})
			at += within(rng) / 3
			cfg.Faults = append(cfg.Faults, shard.Fault{Trunk: trunk, At: at, Up: true})
		}
	}
	return cfg, fmt.Sprintf("seed %d: %s, %v, %.2f pkt/s to %d destinations a PSN, faults %v",
		seed, topo.Desc, cfg.Metric, cfg.PktRate, cfg.Dests, cfg.Faults)
}

// within draws a time within one measurement period, to the microsecond.
func within(rng *rand.Rand) sim.Time {
	return 1 + sim.Time(rng.Int63n(int64(node.MeasurementPeriod)))
}

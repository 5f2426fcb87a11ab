package check

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Every scripted check — flood heal, scenario audit, hybrid differential,
// the two sharded checks — keeps its disturbances as a flat
// []scenario.Event: the form ddmin shrinks, scenario.RunSharded (and, for
// the hybrid differential, scenario.Run) executes and Script renders as a
// .scn reproducer.

// script wraps a disturbance list as a runnable scenario.
func script(name string, duration, checkEvery sim.Time, events []scenario.Event) *scenario.Scenario {
	return &scenario.Scenario{Name: name, Duration: duration, CheckEvery: checkEvery, Events: events}
}

// firstViolation reports a run's first audit violation as an error.
func firstViolation(res scenario.Result) error {
	if len(res.Violations) > 0 {
		v := res.Violations[0]
		return fmt.Errorf("%s violation at %v: %s", v.Check, v.At, v.Err)
	}
	return nil
}

// scriptFailure turns a failing scripted trial into its Failure: sc.Events
// — which made run report err — are minimized by ddmin, re-run for the
// final error, put in time order and rendered as a self-contained .scn
// whose comment lines carry the trial (header) and the violated property.
func scriptFailure(check string, seed int64, topo, header string, sc *scenario.Scenario,
	err error, run func([]scenario.Event) error) *Failure {
	min := Minimize(sc.Events, func(sub []scenario.Event) bool { return run(sub) != nil })
	if finalErr := run(min); finalErr != nil {
		err = finalErr // else minimization raced a non-deterministic bug; report the original
	}
	sort.SliceStable(min, func(i, j int) bool { return min[i].At < min[j].At })
	text, scErr := script(sc.Name, sc.Duration, sc.CheckEvery, min).Script()
	if scErr != nil {
		text = fmt.Sprintf("# unserializable: %v\n", scErr)
	}
	return &Failure{
		Check: check,
		Seed:  seed,
		Topo:  topo,
		Err:   err.Error(),
		Repro: fmt.Sprintf("%s%s# error: %v\n", header, text, err),
	}
}

// CheckScenario runs one randomized fault-script trial: a small generated
// topology under light uniform load and a random metric, hit with random
// trunk outages, repairs, flaps and traffic surges, run on one shard
// (runShardCuts with no cut). The packet-conservation ledger, the custody
// and transmitter audits and the convergence check of scenario.RunSharded
// must hold at every checkpoint. On failure the fault
// script is minimized and rendered as a self-contained .scn scenario file
// (with the topology and seed in comment headers) as the reproducer.
func CheckScenario(rng *rand.Rand, seed int64) *Failure {
	topo := GenTopology(rng, 12)
	g := topo.G
	metric := []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop}[rng.Intn(3)]
	load := 20_000 + rng.Float64()*60_000
	cfgSeed := rng.Int63()
	duration := sim.FromSeconds(60 + 90*rng.Float64())

	// nOps counts drawn disturbances; a flap is one, however many down/up
	// events it expands to.
	nOps := 3 + rng.Intn(6)
	sc := script("check", duration, 10*sim.Second, nil)
	for n := 0; n < nOps; {
		at := sim.Time(rng.Int63n(int64(duration) * 3 / 4))
		switch rng.Intn(6) {
		case 0, 1:
			a, b := randTrunkNames(rng, g)
			sc.DownAt(at, a, b)
			n++
			if rng.Intn(2) == 0 {
				if up := at + sim.FromSeconds(5+20*rng.Float64()); up < duration {
					sc.UpAt(up, a, b)
					n++
				}
			}
		case 2:
			a, b := randTrunkNames(rng, g)
			sc.UpAt(at, a, b)
			n++
		case 3:
			a, b := randTrunkNames(rng, g)
			cycles := 1 + rng.Intn(3)
			period := sim.FromSeconds(2 + 6*rng.Float64())
			if at+sim.Time(2*cycles+1)*period < duration {
				sc.FlapAt(at, a, b, period, cycles)
				n++
			}
		case 4:
			sc.SurgeAt(at, 0.5+1.5*rng.Float64())
			n++
		default:
			sc.CheckpointAt(at)
			n++
		}
	}

	cfg := shard.Config{Graph: g, Traffic: traffic.Uniform(g, load), Adaptive: true, Metric: metric, Seed: cfgSeed}
	run := func(events []scenario.Event) error {
		return runShardCuts(cfg, 15*sim.Second, script(sc.Name, duration, sc.CheckEvery, events))
	}
	err := run(sc.Events)
	if err == nil {
		return nil
	}
	header := fmt.Sprintf("# topo: %s\n# metric: %v\n# load: %.0f bps uniform\n# cfgseed: %d\n",
		topo.Desc, metric, load, cfgSeed)
	return scriptFailure("scenario-audit", seed, topo.Desc, header, sc, err, run)
}

// CheckFlood runs one heal trial, the case random fault scripts rarely draw.
// On a generated topology with idle lines, just after every PSN's first 50 s
// refresh, the trunks between a random half of the nodes and the rest fail,
// cutting the network into components; one more trunk fails on each side of
// the cut; and the cut heals. Each side has flooded news the other missed,
// and only the line-up exchange of a repaired trunk carries it across:
// node.FloodTime after the heal every flood older than the heal must have
// landed (shard.(*Sim).StaleFloods; a refresh may fall due since), and
// every PSN must hold each origin's latest update (the convergence audit)
// with every other audit of scenario.RunSharded, on one shard, passing. A
// failure shrinks to a .scn script.
func CheckFlood(rng *rand.Rand, seed int64) *Failure {
	topo := GenTopology(rng, 16)
	g := topo.G
	in := make([]bool, g.NumNodes()) // the cut separates these nodes from the rest
	for i := range in {
		in[i] = rng.Intn(2) == 0
	}

	start := node.MaxUpdateInterval + node.MeasurementPeriod + sim.Second
	heal := start + 3*sim.Second
	sc := script("flood", 0, 0, nil)
	var sides [2][]int // trunks among the nodes in, then among the rest
	for tr := 0; tr < g.NumTrunks(); tr++ {
		l := g.Link(topology.LinkID(2 * tr))
		a, b := trunkNames(g, tr)
		switch {
		case in[l.From] != in[l.To]:
			sc.DownAt(start, a, b)
			sc.UpAt(heal, a, b)
		case in[l.From]:
			sides[0] = append(sides[0], tr)
		default:
			sides[1] = append(sides[1], tr)
		}
	}
	down := make([]bool, g.NumLinks()) // the links still down after the heal
	for _, side := range sides {
		if len(side) > 0 {
			tr := side[rng.Intn(len(side))]
			a, b := trunkNames(g, tr)
			sc.DownAt(start+sim.Second, a, b)
			down[2*tr], down[2*tr+1] = true, true
		}
	}
	settle := node.FloodTime(g, func(l topology.LinkID) bool { return down[l] })
	sc.Duration = heal + settle

	cfg := shard.Config{Graph: g, Shards: 1, Traffic: traffic.NewMatrix(g.NumNodes()), Adaptive: true, Metric: node.MinHop, Seed: seed}
	run := func(events []scenario.Event) error {
		s, res, err := scenario.RunSharded(cfg, 0, script(sc.Name, sc.Duration, 0, events), nil)
		if err == nil {
			err = firstViolation(res)
		}
		if err != nil {
			return err
		}
		if stale := s.StaleFloods(heal); len(stale) > 0 {
			return fmt.Errorf("updates from %d origins that flooded nothing since the heal still in flight %v after it (first %s)",
				len(stale), settle, g.Node(stale[0]).Name)
		}
		return nil
	}
	err := run(sc.Events)
	if err == nil {
		return nil
	}
	header := fmt.Sprintf("# topo: %s\n# idle lines, every link at a fixed cost of 1\n# seed: %d\n", topo.Desc, seed)
	return scriptFailure("flood-delivery", seed, topo.Desc, header, sc, err, run)
}

func randTrunkNames(rng *rand.Rand, g *topology.Graph) (string, string) {
	return trunkNames(g, rng.Intn(g.NumTrunks()))
}

func trunkNames(g *topology.Graph, trunk int) (string, string) {
	l := g.Link(topology.LinkID(2 * trunk))
	return g.Node(l.From).Name, g.Node(l.To).Name
}

package check

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The sharded-adaptive differential: the same adaptive scenario — topology,
// metric, traffic, fault script — run through internal/shard at 1, 2 and 4
// shards must produce the identical per-link advertised-cost time series,
// sample for sample, bit for bit, plus a byte-identical merged trace, with
// scenario.RunSharded's audits at every 1 s checkpoint. This is
// determinism-by-construction made observable on state the trace does not
// record (every link's module, not just the sampled nodes').
//
// The sharded engine is not compared with internal/network here: the two
// draw independent packet sample paths, so their costs agree only within a
// band, and a band both flags noise and hides a skewed measurement. What
// the two engines must share exactly — the delay each feeds Module.Update
// on an idle trunk, and the cost D-SPF makes of it — is pinned by a test
// in each package (TestIdleLinkMeasurement); the network engine's audits
// run under random fault scripts in CheckScenario.

// shardWarmup keeps generated faults clear of the boot: two measurement
// periods. Routers boot converged at their idle costs, so no boot flood is
// left to wait out; what the two periods put behind the first fault are each
// line's first two measurements of its offered load, the updates that move
// costs off the idle values, and the first refreshes of two fifths of the
// PSNs (node.BootOriginated staggers them over five periods). The value
// predates the steady boot and stays: every generated fault time, and with
// it the census, depends on it.
const shardWarmup = 2 * node.MeasurementPeriod

// shardTrial is the generated-but-fixed part of a differential trial.
type shardTrial struct {
	topoName string
	g        *topology.Graph
	metric   node.MetricKind
	pktRate  float64 // packets/second offered per node
	dests    int
	seed     int64
	duration sim.Time
}

// genShardTrial draws one trial on two small topologies, the ARPANET map
// and a four-region hierarchical graph, at light load: the shard identity
// must hold whatever the load, and light runs keep a campaign short.
func genShardTrial(rng *rand.Rand) (shardTrial, []scenario.Event) {
	trial := shardTrial{
		metric:   []node.MetricKind{node.MinHop, node.DSPF, node.HNSPF}[rng.Intn(3)],
		pktRate:  0.5 + rng.Float64(),
		dests:    3 + rng.Intn(3),
		seed:     rng.Int63(),
		duration: sim.FromSeconds(60 + 30*rng.Float64()),
	}
	if rng.Intn(2) == 0 {
		trial.topoName, trial.g = "arpanet", topology.Arpanet()
	} else {
		seed := rng.Int63n(1 << 30)
		trial.topoName = fmt.Sprintf("hier(r=4 per=8 seed=%d)", seed)
		trial.g = topology.Hierarchical(4, 8, seed)
	}
	// Fault pairs land after warmup with >= 20 s of tail, so the sampled
	// series cover the outage and the start of the repair's ease-in.
	var sc scenario.Scenario
	for i := rng.Intn(3); i > 0; i-- {
		window := trial.duration - shardWarmup - 20*sim.Second
		at := shardWarmup + sim.Time(rng.Int63n(int64(window)))
		a, b := randTrunkNames(rng, trial.g)
		sc.DownAt(at, a, b)
		up := at + sim.FromSeconds(5+10*rng.Float64())
		if up < trial.duration-15*sim.Second {
			sc.UpAt(up, a, b)
		}
	}
	return trial, sc.Events
}

// header renders the trial as the comment lines that open its .scn
// reproducer. partition is the explicit cut of a custody trial ("" when the
// partitioner chose).
func (t shardTrial) header(partition string) string {
	h := fmt.Sprintf("# topo: %s\n# metric: %v\n# rate: %.3f pkt/s/node x %d dests\n# cfgseed: %d\n",
		t.topoName, t.metric, t.pktRate, t.dests, t.seed)
	if partition != "" {
		h += fmt.Sprintf("# partition: %s\n", partition)
	}
	return h
}

// CheckShardRouting runs one randomized shard differential (1 vs 2 vs 4
// shards, above). On failure the fault script is minimized and rendered as
// a .scn reproducer with the trial in comment headers.
func CheckShardRouting(rng *rand.Rand, seed int64) *Failure {
	trial, events := genShardTrial(rng)
	sc := script("shard-diff", trial.duration, sim.Second, events)
	run := func(sub []scenario.Event) error {
		return runShardDiff(trial, script(sc.Name, sc.Duration, sc.CheckEvery, sub))
	}
	err := run(events)
	if err == nil {
		return nil
	}
	return scriptFailure("shard-differential", seed, trial.topoName, trial.header(""), sc, err, run)
}

// shardLeg is one shard-engine run's observables.
type shardLeg struct {
	series [][]float64 // [link][checkpoint] advertised cost
	trace  string
}

// runShardLeg runs the script on the shard engine at the given shard count,
// sampling every link's advertised cost at each of the script's 1 s
// checkpoints, where the runner audits.
func runShardLeg(t shardTrial, sc *scenario.Scenario, shards int) (*shardLeg, error) {
	cfg := shard.Config{
		Graph:         t.g,
		Shards:        shards,
		Seed:          t.seed,
		PktRate:       t.pktRate,
		Dests:         t.dests,
		Adaptive:      true,
		Metric:        t.metric,
		MeasureSample: 8,
		TraceDrops:    true,
	}
	leg := &shardLeg{series: make([][]float64, t.g.NumLinks())}
	s, res, err := scenario.RunSharded(cfg, sc, func(s *shard.Sim) {
		for l := range leg.series {
			leg.series[l] = append(leg.series[l], s.LinkCost(topology.LinkID(l)))
		}
	})
	if err == nil {
		err = firstViolation(res)
	}
	if err != nil {
		return nil, err
	}
	leg.trace = s.TraceText()
	return leg, nil
}

// runShardDiff runs the trial at 1, 2 and 4 shards and returns the first
// divergence from the single-kernel run, or the first failed audit, as an
// error.
func runShardDiff(t shardTrial, sc *scenario.Scenario) error {
	ref, err := runShardLeg(t, sc, 1)
	if err != nil {
		return fmt.Errorf("shards=1: %w", err)
	}
	for _, shards := range []int{2, 4} {
		leg, err := runShardLeg(t, sc, shards)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		for l := range ref.series {
			for i := range ref.series[l] {
				// The pillar's whole point is bitwise equality across shard counts
				if leg.series[l][i] != ref.series[l][i] {
					a, b := t.g.Link(topology.LinkID(l)).From, t.g.Link(topology.LinkID(l)).To
					return fmt.Errorf("shards=%d: advertised cost of %s->%s diverged at checkpoint %d: %.9g vs %.9g",
						shards, t.g.Node(a).Name, t.g.Node(b).Name, i, leg.series[l][i], ref.series[l][i])
				}
			}
		}
		if leg.trace != ref.trace {
			return fmt.Errorf("shards=%d: merged trace diverged from single-kernel run", shards)
		}
	}
	return nil
}

// --- custody torture --------------------------------------------------------

// CheckShardCustody is the update-packet custody torture test: a random
// small topology, a random explicit shard cut (not the partitioner's — a
// striped or fully random assignment cuts low-latency intra-region trunks
// the greedy partitioner never would, driving the barrier with 1-tick
// lookaheads), adaptive routing under a random metric, and a random fault
// script. The composed custody ledgers — user AND control identities — the
// wire/transmitter audits and convergence must hold at every 1 s checkpoint
// of the script. Violations ddmin to a runnable .scn with the partition in a
// header.
func CheckShardCustody(rng *rand.Rand, seed int64) *Failure {
	regions, per := 2+rng.Intn(3), 4+rng.Intn(5)
	topoSeed := rng.Int63n(1 << 30)
	trial := shardTrial{
		topoName: fmt.Sprintf("hier(r=%d per=%d seed=%d)", regions, per, topoSeed),
		g:        topology.Hierarchical(regions, per, topoSeed),
		metric:   []node.MetricKind{node.MinHop, node.DSPF, node.HNSPF}[rng.Intn(3)],
		pktRate:  5 + 95*rng.Float64(), // congestion welcome: drops must stay booked
		dests:    2 + rng.Intn(4),
		seed:     rng.Int63(),
		duration: sim.FromSeconds(6 + 6*rng.Float64()),
	}
	shards := 2 + rng.Intn(3)
	part := randPartition(rng, trial.g.NumNodes(), shards)
	queueLimit := []int{0, 2, 8}[rng.Intn(3)]

	nOps := 2 + rng.Intn(6)
	sc := script("shard-diff", trial.duration, sim.Second, nil)
	for len(sc.Events) < nOps {
		at := sim.Second + sim.Time(rng.Int63n(int64(trial.duration*3/4)))
		a, b := randTrunkNames(rng, trial.g)
		if rng.Intn(3) == 0 {
			sc.UpAt(at, a, b)
		} else {
			sc.DownAt(at, a, b)
		}
	}

	run := func(sub []scenario.Event) error {
		return runShardCustody(trial, script(sc.Name, sc.Duration, sc.CheckEvery, sub), shards, part, queueLimit)
	}
	err := run(sc.Events)
	if err == nil {
		return nil
	}
	return scriptFailure("shard-custody", seed, trial.topoName, trial.header(partitionString(part)), sc, err, run)
}

// randPartition draws a uniformly random node→shard map, patched so every
// shard owns at least one node (steal the lowest-ID nodes deterministically).
func randPartition(rng *rand.Rand, n, shards int) []int {
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(shards)
	}
	count := make([]int, shards)
	for _, p := range part {
		count[p]++
	}
	next := 0
	for s, c := range count {
		if c > 0 {
			continue
		}
		for ; next < n; next++ {
			if count[part[next]] > 1 {
				count[part[next]]--
				part[next] = s
				count[s]++
				next++
				break
			}
		}
	}
	return part
}

func partitionString(part []int) string {
	var b strings.Builder
	for i, p := range part {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	return b.String()
}

// runShardCustody runs the script on the adaptive sharded engine over an
// explicit cut, audited at every checkpoint, and cross-checks the trace and
// report against the canonical single-shard run (an explicit partition must
// be invisible).
func runShardCustody(t shardTrial, sc *scenario.Scenario, shards int, part []int, queueLimit int) error {
	cfg := shard.Config{
		Graph:         t.g,
		Shards:        shards,
		Seed:          t.seed,
		PktRate:       t.pktRate,
		Dests:         t.dests,
		QueueLimit:    queueLimit,
		Adaptive:      true,
		Metric:        t.metric,
		MeasurePeriod: 2 * sim.Second, // several flood waves inside the short run
		MeasureSample: 4,
		TraceDrops:    true,
		Partition:     part,
	}
	s, res, err := scenario.RunSharded(cfg, sc, nil)
	if err == nil {
		err = firstViolation(res)
	}
	if err != nil {
		return fmt.Errorf("shards=%d cut: %w", shards, err)
	}
	ref := cfg
	ref.Shards = 1
	ref.Partition = nil
	r, res, err := scenario.RunSharded(ref, sc, nil)
	if err == nil {
		err = firstViolation(res)
	}
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if got, want := s.TraceText(), r.TraceText(); got != want {
		return fmt.Errorf("random cut changed the merged trace (shards=%d)", shards)
	}
	if got, want := s.Report().String(), r.Report().String(); got != want {
		return fmt.Errorf("random cut changed the report:\n%s\nwant:\n%s", got, want)
	}
	return nil
}

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

// The shard identity: a partition is invisible, so the same adaptive
// scenario — topology, metric, traffic, fault script — run through
// internal/shard on any cut must reproduce the one-shard run, with
// scenario.RunSharded's audits passing at every 1 s checkpoint of each run.
// runShardCuts compares three observables: every link's advertised cost at
// every checkpoint, bit for bit, which makes determinism-by-construction
// observable on state the trace does not record (every link's module, not
// just the sampled nodes'); the merged trace; and the rendered report, the
// one place the shards' books are summed. Two pillars draw the cuts:
// CheckShardRouting the partitioner's at 2 and 4 shards under light load,
// CheckShardCustody a random one under congestion.
//
// The sharded engine is not compared with internal/network here: the two
// meet exactly in internal/network's TestShardEngineMatchesPacketForPacket
// and TestEnginesAgree, and what they must share on an idle trunk — the
// delay each feeds Module.Update and the cost D-SPF makes of it — is pinned
// by a test in each package (TestIdleLinkMeasurement).

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

// CheckShardRouting runs one randomized shard differential: the trial at 2
// and 4 shards, on the partitioner's cuts, against the one-shard run
// (runShardCuts). On failure the fault script is minimized and rendered as
// a .scn reproducer with the trial in comment headers.
func CheckShardRouting(rng *rand.Rand, seed int64) *Failure {
	trial, events := genShardTrial(rng)
	cfg := shard.Config{
		Graph:         trial.g,
		Seed:          trial.seed,
		PktRate:       trial.pktRate,
		Dests:         trial.dests,
		Adaptive:      true,
		Metric:        trial.metric,
		MeasureSample: 8,
		TraceDrops:    true,
	}
	sc := script("shard-diff", trial.duration, sim.Second, events)
	run := func(sub []scenario.Event) error {
		return runShardCuts(cfg, 0, script(sc.Name, sc.Duration, sc.CheckEvery, sub), 2, 4)
	}
	err := run(events)
	if err == nil {
		return nil
	}
	return scriptFailure("shard-differential", seed, trial.topoName, trial.header(""), sc, err, run)
}

// runShardCuts runs the script through scenario.RunSharded, audited at every
// checkpoint, with the measured window opening at warmup: first on one shard
// with no partition — the reference — and then cut into each of the given
// shard counts: over cfg.Partition, or the partitioner's cut when it is nil.
// It returns the first failed audit, or the first of the three observables
// (above) in which a cut departs from the reference.
func runShardCuts(cfg shard.Config, warmup sim.Time, sc *scenario.Scenario, shards ...int) error {
	var refSeries [][]float64
	var refTrace, refReport string
	for i, n := range append([]int{1}, shards...) {
		c := cfg
		c.Shards = n
		if i == 0 {
			c.Partition = nil
		}
		series := make([][]float64, cfg.Graph.NumLinks())
		s, res, err := scenario.RunSharded(c, warmup, sc, func(s *shard.Sim) {
			for l := range series {
				series[l] = append(series[l], s.LinkCost(topology.LinkID(l)))
			}
		})
		if err == nil {
			err = firstViolation(res)
		}
		if err != nil {
			return fmt.Errorf("shards=%d: %w", n, err)
		}
		trace, report := s.TraceText(), s.Report().String()
		if i == 0 {
			refSeries, refTrace, refReport = series, trace, report
			continue
		}
		for l := range refSeries {
			for k := range refSeries[l] {
				// The pillar's whole point is bitwise equality across cuts
				if series[l][k] != refSeries[l][k] {
					lnk := cfg.Graph.Link(topology.LinkID(l))
					return fmt.Errorf("shards=%d: advertised cost of %s->%s diverged at checkpoint %d: %.9g vs %.9g",
						n, cfg.Graph.Node(lnk.From).Name, cfg.Graph.Node(lnk.To).Name, k, series[l][k], refSeries[l][k])
				}
			}
		}
		if trace != refTrace {
			return fmt.Errorf("shards=%d: merged trace diverged from the one-shard run", n)
		}
		if report != refReport {
			return fmt.Errorf("shards=%d: report diverged from the one-shard run:\n%s\nwant:\n%s", n, report, refReport)
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
// of the script, and the cut must reproduce the one-shard run
// (runShardCuts). Violations ddmin to a runnable .scn with the partition in
// a header.
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

	cfg := shard.Config{
		Graph:         trial.g,
		Seed:          trial.seed,
		PktRate:       trial.pktRate,
		Dests:         trial.dests,
		QueueLimit:    queueLimit,
		Adaptive:      true,
		Metric:        trial.metric,
		MeasurePeriod: 2 * sim.Second, // several flood waves inside the short run
		MeasureSample: 4,
		TraceDrops:    true,
		Partition:     part,
	}
	run := func(sub []scenario.Event) error {
		return runShardCuts(cfg, 0, script(sc.Name, sc.Duration, sc.CheckEvery, sub), shards)
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

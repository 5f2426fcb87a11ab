package check

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The sharded-adaptive differential: the same adaptive scenario — topology,
// metric, traffic, fault script — run through internal/shard and through
// the full internal/network engine must tell routing the same story.
//
// The comparison has two legs with two very different standards of proof:
//
//  1. EXACT (models share everything): the shard runner at 1, 2 and 4
//     shards must produce the identical per-link advertised-cost time
//     series, sample for sample, bit for bit, plus a byte-identical merged
//     trace. This is determinism-by-construction made observable on state
//     the trace does not record (every link's module, not just the sampled
//     nodes').
//
//  2. TOLERANCED (models share the protocol stack but not the sample
//     path): shard-vs-network runs share the cost modules, the flooding
//     protocol, the measurement formula (queueing+transmission+processing)
//     and the fault handling, but draw independent packet sample paths
//     from differently-shaped RNGs, stagger measurement instants with
//     different integer rounding (< 1 ms apart), and differ in delivery
//     timing by the 500 µs/hop processing term the shard model folds into
//     the measurement instead of the propagation. Per-link post-warmup
//     time-mean advertised costs are compared per metric:
//
//     - MinHop: the cost is identically 1 regardless of sample path, so
//     the time means must agree exactly — this pins the shared plumbing.
//     - HN-SPF at the generated light loads: the revised metric is
//     deliberately flat at its floor below ~50% utilization, and the
//     floor (MinCost + propagation term) is computed by shared code from
//     shared inputs; the means must agree to shardHNMaxDiff, which is
//     loose only around repair ease-in (Reset pins the cost at MaxCost
//     until the next measurement instant, and the two engines' instants
//     differ by sub-millisecond rounding, so a 1 Hz sample can land on
//     opposite sides of one 10 s ease-in step).
//     - D-SPF: the advertised cost IS the measured delay (plus bias), so
//     it inherits the sample-path noise; the means are judged by the
//     mean relative deviation, a per-link outlier cap, and the SPF
//     next-hop agreement the mean costs imply (the same shape as the
//     hybrid differential's backstops).
//
// Measured basis for the toleranced bounds (SHARD_CALIB=40 sweep via
// TestShardDiffCalibration: 40 seeded trials over both topologies, 0–2
// fault pairs each — 17 HN-SPF, 9 D-SPF, 14 MinHop draws): MinHop deviated
// by exactly 0; HN-SPF per-link mean difference reached at most 1.86 cost
// units, on a repaired link's ease-in edge; D-SPF mean relative deviation
// stayed within ±0.031 with at most 3 links beyond 30% relative deviation
// and next-hop agreement >= 0.901. The bounds below leave >= 2x margin on
// the scalar statistics and headroom on the counts.
const (
	shardHNMaxDiff     = 4.0  // per-link |Δmean|, HN-SPF (ease-in edge noise x2)
	shardDspfSysMax    = 0.08 // |mean relative deviation|, D-SPF
	shardDspfRelOut    = 0.30 // per-link relative deviation marking an outlier
	shardDspfMaxOut    = 8    // outlier links allowed (of 88 on ARPANET)
	shardDspfAgreeMin  = 0.85 // SPF next-hop agreement on time-mean costs
	shardSampleSeconds = 1    // advertised-cost sampling cadence, seconds
)

// shardCheckEvery is the audit cadence of the differential's network leg.
const shardCheckEvery = 20 * sim.Second

// shardWarmup is the cost-series cutoff: two measurement periods, so every
// node's first flood wave (always reported) and the second settling wave
// are behind the comparison window.
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

// genShardTrial draws one trial on the ISSUE's two small topologies. Loads
// are light: HN-SPF must sit in its flat floor region (the exact-ish leg)
// and D-SPF in the linear queueing band where the engines' independent
// sample paths stay coherent.
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
	// Fault pairs land after warmup with >= 20 s of tail so the repair's
	// ease-in has begun (not necessarily finished — the tolerance covers it).
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

// CheckShardRouting runs one randomized sharded-vs-unsharded adaptive
// differential (both legs above). On failure the fault script is minimized
// and rendered as a .scn reproducer with the trial in comment headers.
func CheckShardRouting(rng *rand.Rand, seed int64) *Failure {
	trial, events := genShardTrial(rng)
	run := func(sub []scenario.Event) error { return runShardDiff(trial, sub) }
	err := run(events)
	if err == nil {
		return nil
	}
	return scriptFailure("shard-differential", seed, trial.topoName, trial.header(""),
		script("shard-diff", trial.duration, shardCheckEvery, events), err, run)
}

// shardLeg is one shard-engine run's observables.
type shardLeg struct {
	series [][]float64 // [link][sample] advertised cost, sampled at 1 Hz
	trace  string
	dests  [][]topology.NodeID // by node, the drawn destination sets
}

// runShardLeg runs the shard engine at the given shard count, sampling
// every link's advertised cost once per shardSampleSeconds and auditing the
// custody ledgers along the way.
func runShardLeg(t shardTrial, events []scenario.Event, shards int) (*shardLeg, error) {
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
		Faults:        shardFaults(t.g, events),
	}
	s, err := shard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("shard.New: %w", err)
	}
	leg := &shardLeg{series: make([][]float64, t.g.NumLinks())}
	steps := int(t.duration / sim.Second)
	for step := 1; step <= steps; step++ {
		s.Run(sim.Time(step) * sim.Second)
		if step%shardSampleSeconds == 0 {
			for l := range leg.series {
				leg.series[l] = append(leg.series[l], s.LinkCost(topology.LinkID(l)))
			}
		}
		if step%10 == 0 {
			if err := s.Audit(); err != nil {
				return nil, fmt.Errorf("audit at %ds: %w", step, err)
			}
		}
	}
	if err := s.Audit(); err != nil {
		return nil, fmt.Errorf("final audit: %w", err)
	}
	leg.trace = s.TraceText()
	leg.dests = make([][]topology.NodeID, t.g.NumNodes())
	for id := range leg.dests {
		leg.dests[id] = s.DestsOf(topology.NodeID(id))
	}
	return leg, nil
}

// shardFaults resolves trunk down/up events, in script order, into the
// shard engine's fault list. Endpoints resolve as scenario.Run resolves
// them — the first trunk joining the pair — so the shard run, the network
// leg and a replayed reproducer all fault the same trunk.
func shardFaults(g *topology.Graph, events []scenario.Event) []shard.Fault {
	var faults []shard.Fault
	for _, ev := range events {
		l, _ := g.FindTrunk(g.MustLookup(ev.A), g.MustLookup(ev.B))
		faults = append(faults, shard.Fault{Trunk: g.Link(l).Trunk, At: ev.At, Up: ev.Kind == scenario.TrunkUp})
	}
	return faults
}

// runShardDiff runs both legs of the differential and returns the first
// violated property as an error.
func runShardDiff(t shardTrial, events []scenario.Event) error {
	ref, err := runShardLeg(t, events, 1)
	if err != nil {
		return fmt.Errorf("shards=1: %w", err)
	}
	// Leg 1 — exact: 2 and 4 shards reproduce the cost series and trace.
	for _, shards := range []int{2, 4} {
		leg, err := runShardLeg(t, events, shards)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		for l := range ref.series {
			for i := range ref.series[l] {
				// The exact leg's whole point is bitwise equality across shard counts
				if leg.series[l][i] != ref.series[l][i] {
					a, b := t.g.Link(topology.LinkID(l)).From, t.g.Link(topology.LinkID(l)).To
					return fmt.Errorf("shards=%d: advertised cost of %s->%s diverged at sample %d: %.9g vs %.9g",
						shards, t.g.Node(a).Name, t.g.Node(b).Name, i, leg.series[l][i], ref.series[l][i])
				}
			}
		}
		if leg.trace != ref.trace {
			return fmt.Errorf("shards=%d: merged trace diverged from single-kernel run", shards)
		}
	}
	// Leg 2 — toleranced: the unsharded engine over the identical scenario.
	netMeans, err := runNetworkLeg(t, events, ref.dests)
	if err != nil {
		return fmt.Errorf("network leg: %w", err)
	}
	return compareShardNetwork(t, seriesMeans(ref.series), netMeans)
}

// seriesMeans reduces the sampled advertised-cost series to post-warmup
// time means, one per link.
func seriesMeans(series [][]float64) []float64 {
	means := make([]float64, len(series))
	cut := int(shardWarmup / sim.Second / shardSampleSeconds)
	for l, s := range series {
		var sum float64
		for _, c := range s[cut:] {
			sum += c
		}
		means[l] = sum / float64(len(s)-cut)
	}
	return means
}

// runNetworkLeg offers the shard run's exact traffic matrix — every node
// sends pktRate packets/s of clamped-exponential size spread uniformly over
// the destination set the shard engine drew — to the full internal/network
// engine, with the fault script riding as a scenario so the conservation,
// transmitter and convergence audits run too. Returns the per-link
// post-warmup time-mean advertised cost.
func runNetworkLeg(t shardTrial, events []scenario.Event, dests [][]topology.NodeID) ([]float64, error) {
	m := traffic.NewMatrix(t.g.NumNodes())
	meanBits := network.ClampedMeanPktBits()
	for id, ds := range dests {
		for _, d := range ds {
			m.Set(topology.NodeID(id), d, t.pktRate*meanBits/float64(len(ds)))
		}
	}
	series := make([]*stats.Series, t.g.NumLinks())
	cfg := scenario.Config{
		Graph:  t.g,
		Matrix: m,
		Metric: t.metric,
		Seed:   t.seed,
		Warmup: shardWarmup,
		Prepare: func(n *network.Network) {
			for l := range series {
				series[l] = n.TrackLinkCost(topology.LinkID(l))
			}
		},
	}
	if err := runScript(cfg, script("shard-diff", t.duration, shardCheckEvery, events)); err != nil {
		return nil, err
	}
	means := make([]float64, len(series))
	for l, s := range series {
		means[l] = meanAfter(s, shardWarmup.Seconds())
	}
	return means, nil
}

// compareShardNetwork judges the cross-model leg per metric (see the file
// comment for the standards and their measured basis).
func compareShardNetwork(t shardTrial, sm, nm []float64) error {
	switch t.metric {
	case node.MinHop:
		for l := range sm {
			// Both sides are time means of the constant 1.0 — any difference is a bug
			if sm[l] != nm[l] {
				return fmt.Errorf("min-hop cost of link %d differs: shard %.9g vs network %.9g (must be exactly 1)",
					l, sm[l], nm[l])
			}
		}
		return nil
	case node.HNSPF:
		for l := range sm {
			if diff := math.Abs(sm[l] - nm[l]); diff > shardHNMaxDiff {
				lnk := t.g.Link(topology.LinkID(l))
				return fmt.Errorf("HN-SPF mean cost of %s->%s differs by %.3f (> %.1f): shard %.4f vs network %.4f",
					t.g.Node(lnk.From).Name, t.g.Node(lnk.To).Name, diff, shardHNMaxDiff, sm[l], nm[l])
			}
		}
		return nil
	default: // D-SPF
		var num, den float64
		out, worst, worstLink := 0, 0.0, topology.NoLink
		for l := range sm {
			num += sm[l] - nm[l]
			den += (sm[l] + nm[l]) / 2
			denom := math.Max(sm[l], nm[l])
			if denom <= 0 {
				continue
			}
			if rel := math.Abs(sm[l]-nm[l]) / denom; rel > shardDspfRelOut {
				out++
				if rel > worst {
					worst, worstLink = rel, topology.LinkID(l)
				}
			}
		}
		if den > 0 {
			if sys := num / den; math.Abs(sys) > shardDspfSysMax {
				return fmt.Errorf("D-SPF mean relative cost deviation %+.4f outside ±%.2f (shard vs network)",
					sys, shardDspfSysMax)
			}
		}
		if out > shardDspfMaxOut {
			lnk := t.g.Link(worstLink)
			return fmt.Errorf("%d links beyond %.0f%% relative deviation (> %d allowed); worst %s->%s at %.0f%%",
				out, 100*shardDspfRelOut, shardDspfMaxOut,
				t.g.Node(lnk.From).Name, t.g.Node(lnk.To).Name, 100*worst)
		}
		if frac := nextHopAgreement(t.g, sm, nm); frac < shardDspfAgreeMin {
			return fmt.Errorf("SPF next-hop agreement on time-mean D-SPF costs is %.3f, below %.2f",
				frac, shardDspfAgreeMin)
		}
		return nil
	}
}

// nextHopAgreement is the fraction of (source, destination) pairs whose SPF
// next hop agrees between two per-link cost vectors.
func nextHopAgreement(g *topology.Graph, sm, nm []float64) float64 {
	sc := func(l topology.LinkID) float64 { return math.Max(sm[l], 1e-9) }
	nc := func(l topology.LinkID) float64 { return math.Max(nm[l], 1e-9) }
	agree, total := 0, 0
	for s := 0; s < g.NumNodes(); s++ {
		src := topology.NodeID(s)
		st := spf.Compute(g, src, sc)
		nt := spf.Compute(g, src, nc)
		for d := 0; d < g.NumNodes(); d++ {
			if d == s {
				continue
			}
			total++
			if st.NextHop(topology.NodeID(d)) == nt.NextHop(topology.NodeID(d)) {
				agree++
			}
		}
	}
	return float64(agree) / float64(total)
}

// --- custody torture --------------------------------------------------------

// CheckShardCustody is the update-packet custody torture test: a random
// small topology, a random explicit shard cut (not the partitioner's — a
// striped or fully random assignment cuts low-latency intra-region trunks
// the greedy partitioner never would, driving the barrier with 1-tick
// lookaheads), adaptive routing under a random metric, and a random fault
// script. The composed custody ledgers — user AND control identities — and
// the wire/transmitter audits must hold at every 1 s barrier. Violations
// ddmin to a runnable .scn with the partition in a header.
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
	var sc scenario.Scenario
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
		return runShardCustody(trial, sub, shards, part, queueLimit)
	}
	err := run(sc.Events)
	if err == nil {
		return nil
	}
	return scriptFailure("shard-custody", seed, trial.topoName, trial.header(partitionString(part)),
		script("shard-diff", trial.duration, 0, sc.Events), err, run)
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

// runShardCustody runs one adaptive sharded simulation over an explicit cut
// with barrier-by-barrier audits, and cross-checks every observable against
// the canonical single-shard run (an explicit partition must be invisible).
func runShardCustody(t shardTrial, events []scenario.Event, shards int, part []int, queueLimit int) error {
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
		Faults:        shardFaults(t.g, events),
	}
	s, err := shard.New(cfg)
	if err != nil {
		return fmt.Errorf("shard.New: %w", err)
	}
	steps := int(t.duration / sim.Second)
	for step := 1; step <= steps; step++ {
		s.Run(sim.Time(step) * sim.Second)
		if err := s.Audit(); err != nil {
			return fmt.Errorf("audit at %ds (shards=%d cut): %w", step, shards, err)
		}
	}
	report := s.Report()
	if !report.Conservation.Balanced() {
		return fmt.Errorf("composed user ledger unbalanced: %+v", report.Conservation)
	}

	ref := cfg
	ref.Shards = 1
	ref.Partition = nil
	r, err := shard.New(ref)
	if err != nil {
		return fmt.Errorf("shard.New (reference): %w", err)
	}
	r.Run(t.duration / sim.Second * sim.Second)
	if err := r.Audit(); err != nil {
		return fmt.Errorf("reference audit: %w", err)
	}
	if got, want := s.TraceText(), r.TraceText(); got != want {
		return fmt.Errorf("random cut changed the merged trace (shards=%d)", shards)
	}
	if got, want := report.String(), r.Report().String(); got != want {
		return fmt.Errorf("random cut changed the report:\n%s\nwant:\n%s", got, want)
	}
	return nil
}

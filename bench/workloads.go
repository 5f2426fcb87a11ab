package main

import (
	"fmt"
	"math/rand"
	"strings"

	arpanet "repro"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// size is the amount of simulated work in one repetition. The benchmark
// runs every workload at its full size; the tests push a shrunken size
// through the same code.
type size struct {
	warmS, measS float64 // simulated seconds before / inside the measured statistics or window
	runs         int     // ARPANET workloads: measured before/after pairs, or measured fault seeds
	shape        bool    // table1_arpanet: long enough for the paper's Table 1 direction to be established
	regions, per int     // hier1k workloads: regions × nodes per region
}

type workload struct {
	name  string
	why   string
	full  size
	small size
	run   func(*rep)
}

// The paper's before/after operating point, as cmd/arpanetsim runs it.
const (
	table1BPS    = 280_000.0
	table1Growth = 413.99 / 366.26
)

// traceCap is the engine trace ring a traced rep switches on. Rings are
// rendered after the measured window, so trace.overhead_pct is the cost of
// recording, not of printing.
const traceCap = 1 << 12

var workloads = []workload{
	{
		name: "table1_arpanet",
		why: "steady-state fast path of the unsharded network engine on the 30-node ARPANET map " +
			"(~13 events/packet, 8 MB): kernel, node model and per-packet work dominate, SPF costs microseconds",
		full:  size{warmS: 100, measS: 600, runs: 4, shape: true},
		small: size{warmS: 5, measS: 25, runs: 1},
		run:   runTable1,
	},
	{
		name: "arpanet_faults",
		why: "the same engine off its fast path: outage flush, full SPF recompute, BF-1969 vectors, fluid " +
			"re-assignment and three auditors per checkpoint, so a fast-path gain that costs the failure path shows",
		full:  size{warmS: 100, measS: 700, runs: 2},
		small: size{warmS: 5, measS: 60, runs: 1},
		run:   runFaults,
	},
	{
		name: "hier1k_adaptive",
		why: "routing-plane dominated 1024-node adaptive HN-SPF run: flood fan-out and incremental SPF are " +
			">95% of events, ~230 MB; spf, flooding and shard.New memory show here and the data plane does not",
		full:  size{warmS: 12, measS: 12, regions: 32, per: 32},
		small: size{warmS: 11, measS: 2, regions: 4, per: 8},
		run:   runHierAdaptive,
	},
	{
		name: "hier1k_dataplane",
		why: "lean data plane, kernel and barrier windows only (static routes, 3 events/packet, 18 MB): an " +
			"spf or flooding change must read no change here, a kernel or barrier change shows here first",
		full:  size{warmS: 25, measS: 100, regions: 32, per: 32},
		small: size{warmS: 1, measS: 2, regions: 4, per: 8},
		run:   runHierDataplane,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- table1_arpanet -------------------------------------------------------

// runTable1 is the paper's headline study through the public API at the
// arpanetsim defaults: D-SPF at 280 kbps, then HN-SPF at the August-1987
// growth factor. Set-up is the inputs plus one untimed pair (it fills the
// queueing table cache and the allocator); measured is sz.runs pairs on the
// following seeds.
func runTable1(r *rep) {
	var topo *arpanet.Topology
	var before, after *arpanet.Traffic
	r.span("topology.build", func() { topo = arpanet.Arpanet1987() })
	r.span("traffic.build", func() {
		w := arpanet.ArpanetWeights()
		before = topo.GravityTraffic(w, table1BPS)
		after = topo.GravityTraffic(w, table1BPS*table1Growth)
	})
	var pairs [][2]arpanet.Report
	pair := func(seed int64) {
		d := r.table1Leg(topo, before, arpanet.DSPF, seed)
		h := r.table1Leg(topo, after, arpanet.HNSPF, seed)
		r.op(fmt.Sprintf("D-SPF run %d", seed), deliveredProblem(d.DeliveredPackets)...)
		problems := deliveredProblem(h.DeliveredPackets)
		if r.sz.shape {
			problems = append(problems, table1Shape(d, h)...)
		}
		r.op(fmt.Sprintf("HN-SPF run %d", seed), problems...)
		if r.measured() {
			pairs = append(pairs, [2]arpanet.Report{d, h})
		}
	}
	r.span("run.warmup", func() { pair(r.seed) })
	r.startMeasured()
	r.span("run.measured", func() {
		for i := 1; i <= r.sz.runs; i++ {
			pair(r.seed + int64(i))
		}
	})
	r.stopMeasured()

	var dDelay, hDelay, dUpd, hUpd, dPath, hPath float64
	for _, p := range pairs {
		for _, rp := range p {
			r.digest(rp.String())
			r.count("packets", float64(rp.OfferedPackets))
			r.count("runs", 1)
			r.count("updates_per_trunk_s", rp.UpdatesPerTrunkSec)
			r.count("delivered_ratio", rp.DeliveredRatio)
		}
		dDelay, hDelay = dDelay+p[0].RoundTripDelayMs, hDelay+p[1].RoundTripDelayMs
		dUpd, hUpd = dUpd+p[0].UpdatesPerTrunkSec, hUpd+p[1].UpdatesPerTrunkSec
		dPath, hPath = dPath+p[0].PathRatio, hPath+p[1].PathRatio
	}
	r.count("paper.delay_ratio", ratio(hDelay, dDelay))
	r.count("paper.updates_ratio", ratio(hUpd, dUpd))
	r.count("paper.path_ratio", ratio(hPath, dPath))
	r.digestRings()
	if r.traced {
		r.table1Events(pairs)
	}
}

func (r *rep) table1Leg(topo *arpanet.Topology, tm *arpanet.Traffic, m arpanet.Metric, seed int64) arpanet.Report {
	cfg := arpanet.SimConfig{Metric: m, Seed: seed, WarmupSeconds: r.sz.warmS}
	if r.traced {
		cfg.TraceCapacity = traceCap
	}
	var s *arpanet.Simulation
	r.span("engine.new", func() { s = arpanet.NewSimulation(topo, tm, cfg) })
	s.RunSeconds(r.sz.warmS + r.sz.measS)
	var rp arpanet.Report
	r.span("report", func() { rp = s.Report() })
	if r.traced && r.measured() {
		r.rings = append(r.rings, s.Trace())
	}
	return rp
}

// table1Events counts the kernel events of the measured pairs. The public
// API does not expose the kernel, so a traced rep re-runs each leg through
// internal/network with the configuration NewSimulation builds and requires
// the identical report before trusting the count.
func (r *rep) table1Events(pairs [][2]arpanet.Report) {
	g := topology.Arpanet()
	w := topology.ArpanetWeights()
	legs := [2]struct {
		kind node.MetricKind
		m    *traffic.Matrix
	}{
		{node.DSPF, traffic.Gravity(g, w, table1BPS)},
		{node.HNSPF, traffic.Gravity(g, w, table1BPS*table1Growth)},
	}
	r.span("events.mirror", func() {
		for i, p := range pairs {
			for j, leg := range legs {
				n := network.New(network.Config{Graph: g, Matrix: leg.m, Metric: leg.kind,
					Seed: r.seed + int64(i+1), Warmup: sim.FromSeconds(r.sz.warmS)})
				n.Run(sim.FromSeconds(r.sz.warmS + r.sz.measS))
				var problems []string
				if got, want := n.Report().String(), p[j].String(); got != want {
					problems = append(problems, "internal/network report differs from the public API's")
				}
				r.op(fmt.Sprintf("%v mirror run %d", leg.kind, i+1), problems...)
				r.count("events", float64(n.Kernel().Fired()))
			}
		}
	})
}

func deliveredProblem(delivered int64) []string {
	if delivered <= 0 {
		return []string{"no packet delivered"}
	}
	return nil
}

// table1Shape checks the paper's Table 1 direction on one before/after pair.
func table1Shape(d, h arpanet.Report) []string {
	var out []string
	bad := func(row string, dv, hv float64) {
		if !(hv < dv) {
			out = append(out, fmt.Sprintf("Table 1 shape: %s HN-SPF %.4g not below D-SPF %.4g", row, hv, dv))
		}
	}
	bad("round-trip delay", d.RoundTripDelayMs, h.RoundTripDelayMs)
	bad("updates per trunk/s", d.UpdatesPerTrunkSec, h.UpdatesPerTrunkSec)
	bad("path ratio", d.PathRatio, h.PathRatio)
	bad("buffer drops", float64(d.BufferDrops), float64(h.BufferDrops))
	return out
}

// ---- arpanet_faults -------------------------------------------------------

// faultScript generates the fault-injection script from the seed: one long
// outage, two flap bursts, two node restarts, a foreground and a background
// surge, and a periodic checkpoint. Times are fractions of the duration so
// the shrunken test size keeps the same shape.
func faultScript(g *topology.Graph, seed int64, durS float64) string {
	rng := rand.New(rand.NewSource(seed))
	trunk := func() string {
		l := g.Link(topology.LinkID(2 * rng.Intn(g.NumTrunks())))
		return g.Node(l.From).Name + " " + g.Node(l.To).Name
	}
	nodeName := func() string { return g.Node(topology.NodeID(rng.Intn(g.NumNodes()))).Name }
	var b strings.Builder
	fmt.Fprintf(&b, "name bench-faults-%d\n", seed)
	fmt.Fprintf(&b, "duration %g\n", durS)
	fmt.Fprintf(&b, "check-every %g\n", durS*30/700)
	long := trunk()
	fmt.Fprintf(&b, "at %g down %s\n", 0.20*durS, long)
	fmt.Fprintf(&b, "at %g up %s\n", 0.45*durS, long)
	fmt.Fprintf(&b, "at %g flap %s period 4 cycles 3\n", 0.30*durS, trunk())
	fmt.Fprintf(&b, "at %g flap %s period 6 cycles 4\n", 0.60*durS, trunk())
	fmt.Fprintf(&b, "at %g restart %s for %g\n", 0.35*durS, nodeName(), 0.04*durS)
	fmt.Fprintf(&b, "at %g restart %s for %g\n", 0.70*durS, nodeName(), 0.03*durS)
	fmt.Fprintf(&b, "at %g surge 1.3\n", 0.50*durS)
	fmt.Fprintf(&b, "at %g surge background 1.5\n", 0.55*durS)
	return b.String()
}

// runFaults drives the generated script through scenario.Run on three
// routing schemes, each over a 10x gravity background carried as fluid.
// Set-up is the inputs plus one untimed seed; measured is sz.runs seeds.
func runFaults(r *rep) {
	var g *topology.Graph
	var fg, bg *traffic.Matrix
	var sc *scenario.Scenario
	r.span("topology.build", func() { g = topology.Arpanet() })
	r.span("traffic.build", func() {
		w := topology.ArpanetWeights()
		fg = traffic.Gravity(g, w, table1BPS)
		bg = traffic.Gravity(g, w, 10*table1BPS)
	})
	r.span("scenario.parse", func() {
		var err error
		sc, err = scenario.Parse(strings.NewReader(faultScript(g, r.seed, r.sz.measS)))
		if err != nil {
			panic(fmt.Sprintf("bench: generated script does not parse: %v", err))
		}
	})
	var reports []network.Report
	oneSeed := func(seed int64) {
		for _, kind := range []node.MetricKind{node.HNSPF, node.DSPF, node.BF1969} {
			var net *network.Network
			cfg := scenario.Config{Graph: g, Matrix: fg, Metric: kind, Seed: seed,
				Warmup: sim.FromSeconds(r.sz.warmS), Background: bg,
				Prepare: func(n *network.Network) { net = n }}
			if r.traced {
				cfg.Trace = trace.NewRing(traceCap)
			}
			res, err := scenario.Run(cfg, sc)
			problems := deliveredProblem(res.Report.DeliveredPackets)
			if err != nil {
				problems = append(problems, err.Error())
			}
			for _, v := range res.Violations {
				problems = append(problems, fmt.Sprintf("%s violated at %v: %s", v.Check, v.At, v.Err))
			}
			r.op(fmt.Sprintf("%v run %d", kind, seed), problems...)
			if r.measured() && err == nil {
				r.count("events", float64(net.Kernel().Fired()))
				reports = append(reports, res.Report)
				if r.traced {
					r.rings = append(r.rings, cfg.Trace)
				}
			}
		}
	}
	r.span("run.warmup", func() { oneSeed(r.seed) })
	r.startMeasured()
	r.span("run.measured", func() {
		for i := 1; i <= r.sz.runs; i++ {
			oneSeed(r.seed + int64(i))
		}
	})
	r.stopMeasured()
	for _, rp := range reports {
		r.digest(rp.String())
		r.count("packets", float64(rp.OfferedPackets))
		r.count("runs", 1)
		r.count("updates_per_trunk_s", rp.UpdatesPerTrunkSec)
		r.count("delivered_ratio", rp.DeliveredRatio)
	}
	r.digestRings()
}

// ---- hier1k ---------------------------------------------------------------

// backboneFaults picks six distinct inter-region trunks from the seed and
// staggers their failures through the first half of the measured window,
// repairing the first two in the second half.
func backboneFaults(g *topology.Graph, seed int64, warmS, measS float64) []shard.Fault {
	region := func(id topology.NodeID) string {
		name, _, _ := strings.Cut(g.Node(id).Name, ".")
		return name
	}
	var bb []int
	for t := 0; t < g.NumTrunks(); t++ {
		l := g.Link(topology.LinkID(2 * t))
		if region(l.From) != region(l.To) {
			bb = append(bb, t)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(bb), func(i, j int) { bb[i], bb[j] = bb[j], bb[i] })
	if len(bb) > 6 {
		bb = bb[:6]
	}
	at := func(frac float64) sim.Time { return sim.FromSeconds(warmS + frac*measS) }
	var faults []shard.Fault
	for i, t := range bb {
		faults = append(faults, shard.Fault{Trunk: t, At: at(0.10 + 0.05*float64(i))})
	}
	for i, t := range bb[:min(2, len(bb))] {
		faults = append(faults, shard.Fault{Trunk: t, At: at(0.60 + 0.10*float64(i)), Up: true})
	}
	return faults
}

// runHierAdaptive is the EXPERIMENTS.md 1024-node study point: adaptive
// HN-SPF through the shard barrier with backbone faults inside the measured
// window.
func runHierAdaptive(r *rep) {
	var g *topology.Graph
	r.span("topology.build", func() { g = topology.Hierarchical(r.sz.regions, r.sz.per, r.seed) })
	cfg := shard.Config{Graph: g, Shards: r.shards, Seed: r.seed, Adaptive: true, Metric: node.HNSPF,
		PktRate: 2, Dests: 3}
	r.span("faults.build", func() { cfg.Faults = backboneFaults(g, r.seed, r.sz.warmS, r.sz.measS) })
	r.runHier(cfg)
}

// runHierDataplane is the same map under static per-epoch routing (the
// arpanetsim -shards default) with neighbour-local traffic and no faults.
func runHierDataplane(r *rep) {
	var g *topology.Graph
	r.span("topology.build", func() { g = topology.Hierarchical(r.sz.regions, r.sz.per, r.seed) })
	r.runHier(shard.Config{Graph: g, Shards: r.shards, Seed: r.seed, PktRate: 50, Dests: 4, DestRadius: 1})
}

// runHier builds the sharded engine, runs the warm-up as set-up and the
// next sz.measS simulated seconds as the measured window, then audits.
func (r *rep) runHier(cfg shard.Config) {
	if r.traced {
		cfg.MeasureSample = 64
		cfg.TraceDrops = true
	}
	var s *shard.Sim
	r.span("engine.new", func() {
		var err error
		if s, err = shard.New(cfg); err != nil {
			panic(fmt.Sprintf("bench: shard.New: %v", err))
		}
	})
	warm := sim.FromSeconds(r.sz.warmS)
	r.span("run.warmup", func() { s.Run(warm) })
	var base shard.Report
	r.span("report", func() { base = s.Report() })
	fired := s.Fired()
	r.startMeasured()
	r.span("run.measured", func() { s.Run(warm + sim.FromSeconds(r.sz.measS)) })
	r.stopMeasured()

	var problems []string
	r.span("audit", func() {
		if err := s.Audit(); err != nil {
			problems = append(problems, err.Error())
		}
	})
	var rp shard.Report
	r.span("report", func() { rp = s.Report() })
	if !rp.Conservation.Balanced() {
		problems = append(problems, "composed conservation ledger unbalanced")
	}
	problems = append(problems, deliveredProblem(rp.Delivered-base.Delivered)...)
	r.op("sharded run", problems...)

	r.digest(rp.String())
	r.digest(fmt.Sprintf("events %d\n", s.Fired()))
	if r.traced {
		r.span("trace_text", func() { r.digest(s.TraceText()) })
	}
	r.count("events", float64(s.Fired()-fired))
	r.count("packets", float64(rp.Generated-base.Generated))
	r.count("originated", float64(rp.Originated-base.Originated))
	r.count("ctrl_copies", float64(rp.CtrlGenerated-base.CtrlGenerated))
	r.count("lookahead_ms", s.Lookahead().Milliseconds())
}

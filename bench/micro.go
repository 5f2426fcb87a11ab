package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	arpanet "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/equilibrium"
	"repro/internal/flooding"
	"repro/internal/flowmodel"
	"repro/internal/metric"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/queueing"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The micro-drivers time single exported calls of each layer in isolation.
// They run in a GOMAXPROCS=1 child of the traced run and feed only
// per-layer metrics; the README's interaction table says which workload
// each one should move.

// microResult is the micro child's output.
type microResult struct {
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures,omitempty"`
}

// nsPer runs loop(n) three times and returns the median nanoseconds per
// iteration.
func nsPer(n int, loop func(n int)) float64 {
	var v [3]float64
	for i := range v {
		t0 := time.Now()
		loop(n)
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(v[:])
}

func runMicro(seed int64, small bool) microResult {
	res := microResult{Metrics: map[string]float64{}}
	m := res.Metrics
	scale := 1
	regions, per := 32, 32
	if small {
		scale, regions, per = 100, 4, 8
	}
	iters := func(full int) int { return max(full/scale, 10) }

	arp := topology.Arpanet()
	arpMatrix := traffic.Gravity(arp, topology.ArpanetWeights(), table1BPS)
	var hier *topology.Graph
	m["topology.hier1k_build_ms"] = nsPer(iters(10), func(n int) {
		for i := 0; i < n; i++ {
			hier = topology.Hierarchical(regions, per, seed)
		}
	}) / 1e6

	microSim(m, iters)
	microNode(m, iters)
	for _, tc := range []struct {
		tag string
		g   *topology.Graph
		n   int
	}{{"arpanet", arp, iters(20_000)}, {"hier1k", hier, iters(300)}} {
		microSPF(m, tc.tag, tc.g, tc.n)
	}
	microFlooding(m, iters, arp)
	microWave(m, hier, seed, small)

	hnm := core.NewModule(topology.T56, 0.010)
	m["core.hnm_update_ns"] = nsPer(iters(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			hnm.Update(0.010 + float64(i%20)/1000)
		}
	})
	dspf := metric.NewDSPF(topology.T56, 0.010)
	m["metric.dspf_update_ns"] = nsPer(iters(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			dspf.Update(0.010 + float64(i%20)/1000)
		}
	})

	// The table the HNM builds per line type: 1% of the service time out to
	// 200 service times. NewTableFunc bypasses the parameter-keyed cache.
	st := queueing.ServiceTime(topology.T56.Bandwidth())
	var table *queueing.Table
	m["queueing.table_build_ms"] = nsPer(iters(30), func(n int) {
		for i := 0; i < n; i++ {
			table = queueing.NewTableFunc(st, st/100, st*200, queueing.UtilizationFromDelay)
		}
	}) / 1e6
	var sink float64
	m["queueing.lookup_ns"] = nsPer(iters(3_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink += table.Lookup(st * (1 + float64(i%150)))
		}
	})

	unit := func(topology.LinkID) float64 { return 1 }
	m["flowmodel.assign_us.arpanet"] = nsPer(iters(500), func(n int) {
		for i := 0; i < n; i++ {
			flowmodel.Assign(arp, arpMatrix, unit)
		}
	}) / 1e3
	fluid := flowmodel.NewFluid(arp, arpMatrix)
	fluid.Reassign(unit, nil)
	m["flowmodel.reassign_us.arpanet"] = nsPer(iters(500), func(n int) {
		for i := 0; i < n; i++ {
			fluid.Reassign(unit, nil)
		}
	}) / 1e3

	script := faultScript(arp, seed, 700)
	m["scenario.parse_us"] = nsPer(iters(500), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := scenario.Parse(strings.NewReader(script)); err != nil {
				res.Failures = append(res.Failures, "scenario.parse: "+err.Error())
				return
			}
		}
	}) / 1e3

	net := network.New(network.Config{Graph: arp, Matrix: arpMatrix, Metric: node.HNSPF, Seed: seed})
	net.Run(sim.FromSeconds(30))
	m["network.audit_us.arpanet"] = nsPer(iters(500), func(n int) {
		for i := 0; i < n; i++ {
			if err := net.Conservation().Err(); err != nil {
				res.Failures = append(res.Failures, "network.audit: "+err.Error())
				return
			}
			if err := net.TransmitterAudit(); err != nil {
				res.Failures = append(res.Failures, "network.audit: "+err.Error())
				return
			}
			// The convergence audit's verdict depends on where the floods
			// stand at t=30 s; only its cost is wanted here.
			_ = net.ConvergenceAudit()
		}
	}) / 1e3

	m["shard.partition_ms.hier1k"] = nsPer(iters(30), func(n int) {
		for i := 0; i < n; i++ {
			shard.Partition(hier, 2)
		}
	}) / 1e6
	m["shard.new_ms.hier1k"] = nsPer(iters(1), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := shard.New(shard.Config{Graph: hier, Shards: 2, Seed: seed, Adaptive: true,
				Metric: node.HNSPF, PktRate: 2, Dests: 3}); err != nil {
				res.Failures = append(res.Failures, "shard.new: "+err.Error())
				return
			}
		}
	}) / 1e6

	m["equilibrium.new_ms.arpanet"] = nsPer(iters(10), func(n int) {
		for i := 0; i < n; i++ {
			equilibrium.New(arp, arpMatrix)
		}
	}) / 1e6
	topo := arpanet.Arpanet1987()
	an := arpanet.NewAnalysis(topo, topo.GravityTraffic(arpanet.ArpanetWeights(), 400_000))
	m["equilibrium.fig10_sweep_ms"] = nsPer(iters(100), func(n int) {
		for i := 0; i < n; i++ {
			an.EquilibriumSweep(arpanet.HNSPF, arpanet.T56, 4, 0.1)
			an.EquilibriumSweep(arpanet.DSPF, arpanet.T56, 4, 0.1)
			an.EquilibriumSweep(arpanet.MinHop, arpanet.T56, 4, 0.1)
		}
	}) / 1e6

	ring := trace.NewRing(4096)
	m["trace.ring_record_ns"] = nsPer(iters(3_000_000), func(n int) {
		for i := 0; i < n; i++ {
			ring.Add(trace.Event{At: sim.Time(i), Kind: trace.PacketDropped, Node: 1, Link: 2})
		}
	})

	microCheck(&res, seed)
	if sink < 0 { // keeps the lookups live
		res.Failures = append(res.Failures, "queueing.lookup: negative utilization")
	}
	return res
}

// microSim times the event kernel the way internal/sim's own benchmarks
// do: schedule+fire on an empty queue, against 1024 pending events, and
// with half the events cancelled.
func microSim(m map[string]float64, iters func(int) int) {
	fn := func(sim.Time) {}
	k := sim.New()
	scheduleFire := func(n int) {
		for i := 0; i < n; i++ {
			_ = k.Schedule(sim.Microsecond, fn) // fired by the Step below, never cancelled
			k.Step()
		}
	}
	m["sim.schedule_fire_ns"] = nsPer(iters(300_000), scheduleFire)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scheduleFire(iters(100_000))
	runtime.ReadMemStats(&after)
	m["sim.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(iters(100_000))

	k = sim.New()
	for i := 0; i < 1024; i++ {
		_ = k.Schedule(sim.Time(i)*sim.Microsecond, fn) // standing backlog, never cancelled
	}
	m["sim.churn1k_ns"] = nsPer(iters(300_000), func(n int) {
		for i := 0; i < n; i++ {
			_ = k.Schedule(1024*sim.Microsecond, fn) // joins the backlog
			k.Step()
		}
	})

	k = sim.New()
	m["sim.cancel_ns"] = nsPer(iters(300_000), func(n int) {
		for i := 0; i < n; i++ {
			h := k.Schedule(sim.Microsecond, fn)
			_ = k.Schedule(2*sim.Microsecond, fn) // fired by a later Step
			h.Cancel()
			k.Step()
		}
	})
}

func microNode(m map[string]float64, iters func(int) int) {
	q := node.NewQueue(network.DefaultQueueLimit)
	pkts := make([]*node.Packet, 8)
	for i := range pkts {
		pkts[i] = &node.Packet{SizeBits: 600}
	}
	m["node.queue_ns"] = nsPer(iters(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range pkts {
				q.Push(p)
			}
			for range pkts {
				q.Pop()
			}
		}
	}) / float64(len(pkts))
	var pool node.PacketPool
	m["node.pool_ns"] = nsPer(iters(3_000_000), func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})
}

// microSPF times one from-scratch Dijkstra through a recycled workspace and
// one incremental repair after a single random cost change, and (on the
// 1024-node map) reads the router's own counters for how much of the tree
// a repair touches and how often it falls back to a full recompute.
func microSPF(m map[string]float64, tag string, g *topology.Graph, n int) {
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 30
	}
	rng := rand.New(rand.NewSource(1))
	ws := spf.NewWorkspace()
	cost := func(l topology.LinkID) float64 { return costs[l] }
	m["spf.full_us."+tag] = nsPer(n, func(n int) {
		for i := 0; i < n; i++ {
			costs[rng.Intn(len(costs))] = 30 + float64(rng.Intn(60))
			spf.ComputeInto(ws, g, 0, cost)
		}
	}) / 1e3
	for i := range costs {
		costs[i] = 30
	}
	r := spf.NewIncrementalRouter(g, 0, costs)
	m["spf.incr_us."+tag] = nsPer(10*n, func(n int) {
		for i := 0; i < n; i++ {
			r.Update(topology.LinkID(rng.Intn(g.NumLinks())), 30+float64(rng.Intn(60)))
		}
	}) / 1e3
	if tag == "hier1k" {
		full, incr, _, touched := r.Stats()
		m["spf.incr_touched.hier1k"] = ratio(float64(touched), float64(incr))
		m["spf.incr_fallback_ratio.hier1k"] = ratio(float64(full), float64(full+incr))
	}
}

func microFlooding(m map[string]float64, iters func(int) int, g *topology.Graph) {
	var scratch []topology.LinkID
	nodes := g.NumNodes()
	m["flooding.forward_links_ns"] = nsPer(iters(3_000_000), func(n int) {
		for i := 0; i < n; i++ {
			id := topology.NodeID(i % nodes)
			scratch = flooding.AppendForwardLinks(scratch[:0], g, id, g.In(id)[0])
		}
	})
	d := flooding.NewDedup(nodes)
	seq := uint64(0)
	m["flooding.dedup_ns"] = nsPer(iters(3_000_000), func(n int) {
		for i := 0; i < n; i++ {
			if i%nodes == 0 {
				seq++
			}
			d.Accept(topology.NodeID(i%nodes), seq-uint64(i&1)) // every other one a duplicate
		}
	})
}

// microWave floods routing updates through the 1024-node map with next to
// no user traffic: adaptive min-hop originates exactly one update per node,
// staggered over the first measurement period, so running a quarter of the
// way into that wave is nothing but flood fan-out, dedup and incremental
// SPF for a quarter of the nodes' updates.
func microWave(m map[string]float64, g *topology.Graph, seed int64, small bool) {
	s, err := shard.New(shard.Config{Graph: g, Shards: 2, Seed: seed, Adaptive: true, Metric: node.MinHop,
		PktRate: 1e-6, Dests: 1})
	if err != nil {
		panic(fmt.Sprintf("bench: shard.New: %v", err))
	}
	period := node.MeasurementPeriod
	s.Run(period - sim.Millisecond)
	before := s.Report().CtrlGenerated
	t0 := time.Now()
	s.Run(period + period/4)
	el := time.Since(t0)
	copies := s.Report().CtrlGenerated - before
	m["flooding.wave_ms.hier1k"] = float64(el.Nanoseconds()) / 1e6
	m["flooding.ns_per_copy.hier1k"] = ratio(float64(el.Nanoseconds()), float64(copies))
}

// microCheck times the randomized checker: each pillar alone on the seed,
// then two whole campaigns (the unit cmd/checker repeats).
func microCheck(res *microResult, seed int64) {
	pillars := []struct {
		name string
		run  func(*rand.Rand) *check.Failure
	}{
		{"check.spf_s", func(r *rand.Rand) *check.Failure { return check.CheckSPF(r, seed, check.IncrementalFactory) }},
		{"check.metric_s", func(r *rand.Rand) *check.Failure { return check.CheckMetric(r, seed) }},
		{"check.flood_s", func(r *rand.Rand) *check.Failure { return check.CheckFlood(r, seed) }},
		{"check.scenario_s", func(r *rand.Rand) *check.Failure { return check.CheckScenario(r, seed) }},
		{"check.hybrid_s", func(r *rand.Rand) *check.Failure { return check.CheckHybrid(r, seed) }},
		{"check.shard_diff_s", func(r *rand.Rand) *check.Failure { return check.CheckShardRouting(r, seed) }},
		{"check.shard_custody_s", func(r *rand.Rand) *check.Failure { return check.CheckShardCustody(r, seed) }},
	}
	for _, p := range pillars {
		t0 := time.Now()
		f := p.run(rand.New(rand.NewSource(seed)))
		res.Metrics[p.name] = time.Since(t0).Seconds()
		if f != nil {
			res.Failures = append(res.Failures, p.name+": "+f.String())
		}
	}
	t0 := time.Now()
	for i := int64(0); i < 2; i++ {
		for _, f := range check.RunCampaign(seed+i, check.Options{}).Failures {
			res.Failures = append(res.Failures, "check.campaign_s: "+f.String())
		}
	}
	res.Metrics["check.campaign_s"] = time.Since(t0).Seconds()
}

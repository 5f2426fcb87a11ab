package arpanet

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/fanout"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Report is the network-wide indicators of a run — Table 1's rows plus
// congestion, loss and overhead counters over the window after the warm-up,
// and the packet ledger and update counters from t = 0 (fields documented
// on internal/node.Report); String renders the Table 1 layout.
type Report = node.Report

// Series is an (x, y) data series, e.g. trunk utilization over time.
type Series = stats.Series

// Trace is a bounded log of loss and routing events (Spec.TraceCapacity);
// events beyond its capacity overwrite the oldest.
type Trace = trace.Ring

// Event kinds a run logs, for Trace.OfKind and Trace.Count.
const (
	TraceDrop     = trace.PacketDropped
	TraceUpdate   = trace.UpdateOriginate
	TraceLinkDown = trace.LinkDown
	TraceLinkUp   = trace.LinkUp
)

// Spec describes one packet-level run of a network under one routing
// metric: Poisson traffic, FIFO trunk queues with finite buffers, 10-second
// delay measurement driving the metric, and routing updates flooded as real
// high-priority packets.
type Spec struct {
	Topology *Topology
	// Traffic is the offered load as a matrix; it must have been built from
	// Topology, and its total must be finite. Exactly one of Traffic and
	// NodeTraffic is set.
	Traffic *Traffic
	// NodeTraffic is the offered load drawn per PSN from Seed.
	NodeTraffic *NodeTraffic
	// Metric is the link metric to run with (default HNSPF).
	Metric Metric
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// WarmupSeconds discards statistics collected before this time.
	WarmupSeconds float64
	// Seconds is the simulated time the run ends at, warm-up included,
	// below MaxSeconds. It must be zero with Script, whose duration is the
	// horizon then.
	Seconds float64
	// Script is a fault-injection script in the .scn format (e.g.
	// examples/flapping/utah-collins.scn): trunk and node faults, surges,
	// and checkpoints auditing conservation, transmitters and convergence.
	// The run takes every event but "surge background", which no Spec
	// carries a fluid background for.
	Script string
	// Shards splits the network into that many shards (at most one a PSN),
	// run in parallel, one goroutine each; 0 runs one, as 1 does. It is
	// parallelism only: every Result field but Stats is the same at any
	// shard count.
	Shards int
	// StaticRoutes routes by one static table over fixed link costs instead
	// of the adaptive plane under a Metric, which it leaves unset; it runs
	// no Script, Ablations or Multipath.
	StaticRoutes bool
	// Track names trunks by their two PSNs; the run samples each a→b
	// direction's utilization and price once per simulated second, after
	// every other event of the second.
	Track [][2]string
	// Ablations disable individual HNM stabilization mechanisms (only
	// with Metric HNSPF); see the HNM* options.
	Ablations []HNMOption
	// Multipath enables equal-cost multipath forwarding (§4.5), which
	// load-shares within one large flow; it needs an SPF metric.
	Multipath bool
	// TraceCapacity, when positive, keeps the last that many of the run's
	// trace events in Result.Trace: every PSN's drops, link changes,
	// measurements, originations and reroutes, in the trace's one order (by
	// time, then PSN), the same at any shard count. Zero traces nothing.
	TraceCapacity int
}

// NodeTraffic is per-PSN traffic: every PSN offers Rate packets a second,
// in equal shares to Dests destinations drawn once from the run's seed —
// among the PSNs within Radius hops when Radius is positive, else among all.
// Every shard count draws the same destinations and the same packets.
type NodeTraffic struct {
	Rate   float64
	Dests  int
	Radius int
}

// MaxSeconds bounds Spec.Seconds, and any other horizon in seconds: the
// simulated clock holds no instant from here on.
const MaxSeconds = sim.MaxSeconds

// Result is one run. The embedded scenario.Result — the Report over the
// post-warm-up window, every checkpoint's audit and any violated invariant
// — is all that encodes as JSON.
type Result struct {
	scenario.Result
	// Tracked holds the series of each Spec.Track trunk, in order.
	Tracked []Tracked `json:"-"`
	// Trace is the event log, nil unless Spec.TraceCapacity is positive.
	Trace *Trace `json:"-"`
	// Script is the timeline run: Spec.Script parsed, or an empty one.
	Script *scenario.Scenario `json:"-"`
	// Stats are what the run cost.
	Stats Stats `json:"-"`

	// engine is the simulator that ran, kept reachable as long as the
	// Result is: a heap profile taken then shows what it retains.
	engine *shard.Sim
}

// Stats are what a run cost, summed over its shards: the events it
// fired, its barrier windows, its kernels' calendar geometry, the static
// plane's route table (with Spec.StaticRoutes) and the lookahead (0 when no
// trunk is cut). They vary with the shard count and enter no Report.
type Stats struct {
	Events    uint64
	Lookahead sim.Time
	Barrier   shard.BarrierStats
	Kernel    sim.Stats
	Routes    shard.RouteStats
}

// Tracked is one trunk direction's series, X in simulated seconds.
type Tracked struct{ Utilization, Cost *Series }

// Run performs one run. Bad input — a Traffic from another Topology or
// with an infinite total, a horizon past the clock's range, an unknown PSN
// name, a script that does not parse or surges a fluid background no Spec
// carries, a setting the Spec cannot run together — is an error naming the
// Spec field; invariant violations are data, in Result.Violations.
func Run(s Spec) (Result, error) {
	var res Result
	cfg, warmup, err := s.config(&res)
	if err != nil {
		return Result{}, err
	}
	if res.engine, res.Result, err = scenario.RunSharded(cfg, warmup, res.Script, nil); err != nil {
		return Result{}, fmt.Errorf("arpanet: Spec.Script: %w", err)
	}
	e := res.engine
	res.Stats = Stats{Events: e.Fired(), Lookahead: e.Lookahead(), Barrier: e.BarrierStats(), Kernel: e.KernelStats(),
		Routes: e.RouteStats()}
	return res, nil
}

// RunSeeds performs the run once per seed Spec.Seed, Spec.Seed+1, …,
// Spec.Seed+n-1, fanned over GOMAXPROCS workers. A matrix Traffic is the
// same for every seed; NodeTraffic's destinations each run draws from its
// own seed, as it draws everything else. Results are indexed like the
// seeds, so they are identical at any worker count. Track and TraceCapacity
// record one run, and are refused here, as is an n below 1, or one whose
// seeds leave int64 or whose results no allocation can hold.
func RunSeeds(s Spec, n int) ([]Result, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("arpanet: RunSeeds n %d is not a seed count (want at least 1)", n)
	case s.Seed > math.MaxInt64-int64(n-1):
		return nil, fmt.Errorf("arpanet: RunSeeds n %d: the seeds from Spec.Seed %d on leave int64", n, s.Seed)
	case uint64(n) > maxAlloc/uint64(unsafe.Sizeof(Result{})+unsafe.Sizeof(error(nil))):
		return nil, fmt.Errorf("arpanet: RunSeeds n %d: no allocation holds that many results", n)
	case len(s.Track) > 0 || s.TraceCapacity > 0:
		return nil, errors.New("arpanet: Spec.Track and Spec.TraceCapacity record one run; use Run")
	}
	out := make([]Result, n)
	errs := make([]error, n)
	fanout.Do(n, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			c := s
			c.Seed += int64(i)
			out[i], errs[i] = Run(c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxAlloc bounds the bytes one Go allocation can hold: the runtime
// addresses 48 bits of heap on a 64-bit platform, and a 32-bit int caps a
// slice below 2^31.
const maxAlloc = 1 << min(48, strconv.IntSize-1)

// config checks s and builds the simulator's configuration and the
// warm-up's end. res receives the timeline, and the trace and tracked
// series the run will fill.
func (s Spec) config(res *Result) (shard.Config, sim.Time, error) {
	if err := s.check(); err != nil {
		return shard.Config{}, 0, fmt.Errorf("arpanet: %w", err)
	}
	res.Script = scenario.NewScenario("run", sim.FromSeconds(s.Seconds))
	if s.Script != "" {
		var err error
		if res.Script, err = scenario.Parse(strings.NewReader(s.Script)); err != nil {
			return shard.Config{}, 0, fmt.Errorf("arpanet: Spec.Script: %w", err)
		}
		if d := res.Script.Duration; d <= sim.FromSeconds(s.WarmupSeconds) {
			return shard.Config{}, 0, fmt.Errorf("arpanet: Spec.Script's duration %v ends within Spec.WarmupSeconds %v: nothing is measured", d.Seconds(), s.WarmupSeconds)
		}
	}
	g := s.Topology.g
	cfg := shard.Config{Graph: g, Shards: max(s.Shards, 1), Seed: s.Seed, Metric: s.Metric, Ablations: s.Ablations,
		Adaptive: !s.StaticRoutes, Multipath: s.Multipath}
	if nt := s.NodeTraffic; nt != nil {
		cfg.PktRate, cfg.Dests, cfg.DestRadius = nt.Rate, nt.Dests, nt.Radius
	} else {
		cfg.Traffic = s.Traffic.m
	}
	if s.TraceCapacity > 0 {
		res.Trace = trace.NewRing(s.TraceCapacity)
		cfg.Trace, cfg.TraceDrops, cfg.MeasureSample = res.Trace, true, 1 // every PSN's events
	}
	for _, p := range s.Track {
		a, okA := g.Lookup(p[0])
		b, okB := g.Lookup(p[1])
		l, ok := g.FindTrunk(a, b)
		if !okA || !okB || !ok {
			return shard.Config{}, 0, fmt.Errorf("arpanet: Spec.Track: no trunk joins PSNs %q and %q", p[0], p[1])
		}
		name := p[0] + "->" + p[1]
		ls := node.LinkSeries{Link: l, Util: stats.NewSeries(name), Cost: stats.NewSeries("cost " + name)}
		cfg.Track = append(cfg.Track, ls)
		res.Tracked = append(res.Tracked, Tracked{Utilization: ls.Util, Cost: ls.Cost})
	}
	if err := cfg.Validate(); err != nil {
		return shard.Config{}, 0, fmt.Errorf("arpanet: Spec.Topology: %w", err)
	}
	return cfg, sim.FromSeconds(s.WarmupSeconds), nil
}

// check refuses a Spec no run can mean, naming the field at fault.
func (s Spec) check() error {
	nt := s.NodeTraffic
	switch {
	case (s.Traffic == nil) == (nt == nil):
		return errors.New("set exactly one of Spec.Traffic and Spec.NodeTraffic")
	case s.Topology == nil || s.Traffic != nil && s.Traffic.t != s.Topology:
		return errors.New("Spec.Topology is not set, or Spec.Traffic was not built from it")
	case s.Traffic != nil && !(s.Traffic.TotalBPS() < math.Inf(1)):
		return fmt.Errorf("Spec.Traffic totals %v bits/s, not a finite load", s.Traffic.TotalBPS())
	case nt != nil && !(nt.Rate > 0 && nt.Rate < math.Inf(1) && nt.Dests > 0 && nt.Radius >= 0):
		return fmt.Errorf("Spec.NodeTraffic %+v: want a positive finite Rate, Dests above 0 and Radius at least 0", *nt)
	case s.Metric < HNSPF || s.Metric > BF1969:
		return fmt.Errorf("Spec.Metric %d is not a metric", int(s.Metric))
	case s.Multipath && s.Metric == BF1969:
		return errors.New("Spec.Multipath requires an SPF metric, not Bellman-Ford 1969")
	case len(s.Ablations) > 0 && s.Metric != HNSPF:
		return fmt.Errorf("Spec.Ablations require Metric HNSPF, not %v", s.Metric)
	case s.TraceCapacity < 0:
		return fmt.Errorf("Spec.TraceCapacity %d is not a capacity: want 0 (no trace) or more", s.TraceCapacity)
	case !(s.WarmupSeconds >= 0):
		return fmt.Errorf("Spec.WarmupSeconds %v is not a time", s.WarmupSeconds)
	case s.Script != "" && s.Seconds != 0:
		return errors.New("Spec.Seconds must be zero with Spec.Script (its duration is the horizon)")
	case s.Script == "" && !(s.Seconds > 0 && s.Seconds < MaxSeconds):
		return fmt.Errorf("Spec.Seconds %v is not a positive time the simulated clock holds (below %g s)", s.Seconds, MaxSeconds)
	case s.Script == "" && s.Seconds <= s.WarmupSeconds:
		return fmt.Errorf("Spec.Seconds %v ends within Spec.WarmupSeconds %v: nothing is measured", s.Seconds, s.WarmupSeconds)
	case s.Shards < 0 || s.Shards > s.Topology.NumNodes():
		return fmt.Errorf("Spec.Shards %d: want 0 (one shard) to %d, one PSN a shard", s.Shards, s.Topology.NumNodes())
	case s.StaticRoutes && s.Script != "":
		return errors.New("Spec.StaticRoutes runs no Spec.Script: static routes flood nothing, so no PSN would hear of a failure")
	case s.StaticRoutes && s.Metric != HNSPF:
		return fmt.Errorf("Spec.Metric %v has no effect on Spec.StaticRoutes, which route over fixed link costs; leave it unset", s.Metric)
	case s.StaticRoutes && len(s.Ablations) > 0:
		return errors.New("Spec.Ablations have no effect on Spec.StaticRoutes, which route over fixed link costs; leave them unset")
	case s.StaticRoutes && s.Multipath:
		return errors.New("Spec.Multipath has no effect on Spec.StaticRoutes, which have no router tree to split over; leave it unset")
	}
	return nil
}

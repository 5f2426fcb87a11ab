package arpanet

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
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
// metric: Poisson traffic from the matrix, FIFO trunk queues with finite
// buffers, 10-second delay measurement driving the metric, and routing
// updates flooded as real high-priority packets.
type Spec struct {
	Topology *Topology
	// Traffic is the offered load; it must have been built from Topology,
	// and its total must be finite.
	Traffic *Traffic
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
	Script string
	// Track names trunks by their two PSNs; the run samples each a→b
	// direction's utilization and cost once per simulated second.
	Track [][2]string
	// Ablations disable individual HNM stabilization mechanisms (only
	// with Metric HNSPF); see the HNM* options.
	Ablations []HNMOption
	// Multipath enables equal-cost multipath forwarding (§4.5), which
	// load-shares within one large flow; it needs an SPF metric.
	Multipath bool
	// TraceCapacity, when positive, keeps that many events in Result.Trace.
	TraceCapacity int
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
}

// Tracked is one trunk direction's series, X in simulated seconds.
type Tracked struct{ Utilization, Cost *Series }

// Run performs one run. Bad input — a Traffic from another Topology or
// with an infinite total, a horizon past the clock's range, an unknown PSN
// name, a script that does not parse or surges a fluid background no Spec
// carries — is an error naming the Spec field; invariant violations are
// data, in Result.Violations.
func Run(s Spec) (Result, error) {
	var res Result
	cfg, err := s.config(&res)
	if err != nil {
		return Result{}, err
	}
	if res.Result, err = scenario.Run(cfg, res.Script); err != nil {
		return Result{}, fmt.Errorf("arpanet: Spec.Script: %w", err)
	}
	return res, nil
}

// RunSeeds performs the run once per seed Spec.Seed, Spec.Seed+1, …,
// Spec.Seed+n-1, fanned over GOMAXPROCS workers. Results are indexed like
// the seeds, so they are identical at any worker count. Track and
// TraceCapacity record one run, and are refused here, as is n < 1.
func RunSeeds(s Spec, n int) ([]Result, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("arpanet: RunSeeds n %d is not a seed count (want at least 1)", n)
	case len(s.Track) > 0 || s.TraceCapacity > 0:
		return nil, errors.New("arpanet: Spec.Track and Spec.TraceCapacity record one run; use Run")
	}
	var res Result
	cfg, err := s.config(&res)
	if err != nil {
		return nil, err
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = s.Seed + int64(i)
	}
	rs, err := scenario.RunBatch(cfg, res.Script, seeds)
	if err != nil {
		return nil, fmt.Errorf("arpanet: Spec.Script: %w", err)
	}
	out := make([]Result, n)
	for i, r := range rs {
		out[i] = Result{Result: r, Script: res.Script}
	}
	return out, nil
}

// config checks s and builds the engine configuration. res receives the
// timeline, and the trace and tracked series the run will fill.
func (s Spec) config(res *Result) (scenario.Config, error) {
	if err := s.check(); err != nil {
		return scenario.Config{}, fmt.Errorf("arpanet: %w", err)
	}
	res.Script = scenario.NewScenario("run", sim.FromSeconds(s.Seconds))
	if s.Script != "" {
		var err error
		if res.Script, err = scenario.Parse(strings.NewReader(s.Script)); err != nil {
			return scenario.Config{}, fmt.Errorf("arpanet: Spec.Script: %w", err)
		}
		if d := res.Script.Duration; d <= sim.FromSeconds(s.WarmupSeconds) {
			return scenario.Config{}, fmt.Errorf("arpanet: Spec.Script's duration %v ends within Spec.WarmupSeconds %v: nothing is measured", d.Seconds(), s.WarmupSeconds)
		}
	}
	g := s.Topology.g
	cfg := scenario.Config{
		Graph:     g,
		Matrix:    s.Traffic.m,
		Metric:    s.Metric,
		Seed:      s.Seed,
		Warmup:    sim.FromSeconds(s.WarmupSeconds),
		Multipath: s.Multipath,
	}
	if opts := s.Ablations; len(opts) > 0 {
		cfg.ModuleFactory = func(l topology.Link) node.CostModule {
			m := core.NewModuleOptions(core.DefaultParams(l.Type), l.Type.Bandwidth(), l.PropDelay, opts...)
			m.Settle() // booted as node.NewCostModule boots the full HNM
			return m
		}
	}
	if s.TraceCapacity > 0 {
		res.Trace = trace.NewRing(s.TraceCapacity)
		cfg.Trace = res.Trace
	}
	var links []topology.LinkID
	for _, p := range s.Track {
		a, okA := g.Lookup(p[0])
		b, okB := g.Lookup(p[1])
		l, ok := g.FindTrunk(a, b)
		if !okA || !okB || !ok {
			return scenario.Config{}, fmt.Errorf("arpanet: Spec.Track: no trunk joins PSNs %q and %q", p[0], p[1])
		}
		links = append(links, l)
	}
	cfg.Prepare = func(n *network.Network) {
		for _, l := range links {
			res.Tracked = append(res.Tracked, Tracked{Utilization: n.TrackLink(l), Cost: n.TrackLinkCost(l)})
		}
	}
	return cfg, nil
}

// check refuses a Spec no run can mean, naming the field at fault.
func (s Spec) check() error {
	switch {
	case s.Traffic == nil || s.Traffic.t != s.Topology:
		return errors.New("Spec.Traffic was not built from Spec.Topology")
	case !(s.Traffic.TotalBPS() < math.Inf(1)):
		return fmt.Errorf("Spec.Traffic totals %v bits/s, not a finite load", s.Traffic.TotalBPS())
	case s.Metric < HNSPF || s.Metric > BF1969:
		return fmt.Errorf("Spec.Metric %d is not a metric", int(s.Metric))
	case s.Multipath && s.Metric == BF1969:
		return errors.New("Spec.Multipath requires an SPF metric, not Bellman-Ford 1969")
	case len(s.Ablations) > 0 && s.Metric != HNSPF:
		return fmt.Errorf("Spec.Ablations require Metric HNSPF, not %v", s.Metric)
	case !(s.WarmupSeconds >= 0):
		return fmt.Errorf("Spec.WarmupSeconds %v is not a time", s.WarmupSeconds)
	case s.Script != "" && s.Seconds != 0:
		return errors.New("Spec.Seconds must be zero with Spec.Script (its duration is the horizon)")
	case s.Script == "" && !(s.Seconds > 0 && s.Seconds < MaxSeconds):
		return fmt.Errorf("Spec.Seconds %v is not a positive time the simulated clock holds (below %g s)", s.Seconds, MaxSeconds)
	case s.Script == "" && s.Seconds <= s.WarmupSeconds:
		return fmt.Errorf("Spec.Seconds %v ends within Spec.WarmupSeconds %v: nothing is measured", s.Seconds, s.WarmupSeconds)
	}
	return nil
}

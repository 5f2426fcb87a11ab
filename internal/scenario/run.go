package scenario

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config describes how to build the network Run tests; RunBatch varies
// only the seed between runs. RunSharded takes a shard.Config instead.
type Config struct {
	Graph     *topology.Graph
	Matrix    *traffic.Matrix
	Metric    node.MetricKind
	Seed      int64
	Warmup    sim.Time
	Multipath bool
	// ModuleFactory overrides the per-link cost module (see
	// network.Config); the ablation experiments run modified HNMs with it.
	ModuleFactory func(l topology.Link) node.CostModule
	// Background configures the hybrid fluid/packet engine (see
	// network.Config). A scenario with a BackgroundSurge event requires a
	// non-nil Background; schedule reports the mismatch as a setup error
	// before the run starts.
	Background *traffic.Matrix
	// Trace, when non-nil, receives the network's event ring. RunBatch
	// ignores it: a shared ring across concurrent seeds would race.
	Trace *trace.Ring
	// Prepare, when non-nil, is called on the freshly built network before
	// the scenario starts — the hook for TrackLink / TrackLinkCost. Under
	// RunBatch it runs once per seed, concurrently; it must not touch
	// shared state.
	Prepare func(*network.Network)
}

// Violation is one invariant failure found at a checkpoint.
type Violation struct {
	At    sim.Time
	Check string // "conservation", "transmitter" (network), "custody" (shard) or "convergence"
	Err   string
}

// CheckpointResult is the audit outcome at one checkpoint.
type CheckpointResult struct {
	At              sim.Time
	Conservation    network.Conservation
	RoutingInFlight int
	// QuietOrigins counts the origins with no copy of an update in flight:
	// the ones the convergence audit checked (node.AuditConvergence). An
	// origin's flood needs no grace period after a topology change: a
	// repaired trunk resyncs both ends, so once its last copy lands every
	// PSN holds its latest update. Zero where nothing floods (the 1969
	// distance-vector mode).
	QuietOrigins int
}

// Result is one seed's run: the final report, every checkpoint's audit,
// and any violations found.
type Result struct {
	Scenario    string
	Seed        int64
	Report      node.Report
	Checkpoints []CheckpointResult
	Violations  []Violation
}

// Run executes the scenario once. The returned error covers setup problems
// only (an invalid scenario, an unknown node name); invariant violations
// are data, recorded in Result.Violations.
func Run(cfg Config, sc *Scenario) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	net := network.New(network.Config{
		Graph:         cfg.Graph,
		Matrix:        cfg.Matrix,
		Metric:        cfg.Metric,
		Seed:          cfg.Seed,
		Warmup:        cfg.Warmup,
		Multipath:     cfg.Multipath,
		ModuleFactory: cfg.ModuleFactory,
		Trace:         cfg.Trace,
		Background:    cfg.Background,
	})
	if cfg.Prepare != nil {
		cfg.Prepare(net)
	}
	r := &runner{cfg: cfg, net: net, res: Result{Scenario: sc.Name, Seed: cfg.Seed}}
	if err := r.schedule(sc); err != nil {
		return Result{}, err
	}
	net.Run(sc.Duration)
	// Audit the horizon, unless a scheduled checkpoint already covered it.
	if len(r.res.Checkpoints) == 0 || r.res.Checkpoints[len(r.res.Checkpoints)-1].At != sc.Duration {
		r.checkpoint(sc.Duration)
	}
	r.res.Report = net.Report()
	return r.res, nil
}

// runner holds one run's mutable state.
type runner struct {
	cfg Config
	net *network.Network
	res Result
	// nodeDowned remembers which trunks each NodeDown actually failed, so
	// the matching NodeUp restores exactly those.
	nodeDowned map[topology.NodeID][]topology.LinkID
}

// schedule resolves names and places every event plus the periodic
// checkpoints on the kernel.
func (r *runner) schedule(sc *Scenario) error {
	g := r.cfg.Graph
	k := r.net.Kernel()
	for _, ev := range sc.sorted() {
		ev := ev
		var fire func(now sim.Time)
		switch ev.Kind {
		case TrunkDown, TrunkUp:
			link, err := resolveTrunk(g, ev.A, ev.B)
			if err != nil {
				return fmt.Errorf("scenario %q: %s at %v: %w", sc.Name, ev.Kind, ev.At, err)
			}
			down := ev.Kind == TrunkDown
			fire = func(sim.Time) {
				if down {
					r.net.SetTrunkDown(link)
				} else {
					r.net.SetTrunkUp(link)
				}
			}
		case NodeDown, NodeUp:
			id, ok := g.Lookup(ev.Node)
			if !ok {
				return fmt.Errorf("scenario %q: %s at %v: unknown node %q", sc.Name, ev.Kind, ev.At, ev.Node)
			}
			down := ev.Kind == NodeDown
			fire = func(sim.Time) {
				if down {
					r.nodeDown(id)
				} else {
					r.nodeUp(id)
				}
			}
		case Surge:
			fire = func(sim.Time) { r.net.ScaleTraffic(ev.Factor) }
		case SwitchMatrix:
			fire = func(sim.Time) { r.net.SetMatrix(ev.Matrix) }
		case BackgroundSurge:
			if r.cfg.Background == nil {
				return fmt.Errorf("scenario %q: %s at %v requires a background matrix (hybrid mode)",
					sc.Name, ev.Kind, ev.At)
			}
			fire = func(sim.Time) { r.net.ScaleBackground(ev.Factor) }
		case Checkpoint:
			fire = func(now sim.Time) { r.checkpoint(now) }
		default:
			return fmt.Errorf("scenario %q: unknown event kind %v", sc.Name, ev.Kind)
		}
		if _, err := k.ScheduleAt(ev.At, fire); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	if sc.CheckEvery > 0 {
		// Checkpoints run until the scenario's horizon.
		k.Every(sc.CheckEvery, func(now sim.Time) { r.checkpoint(now) })
	}
	return nil
}

// resolveTrunk finds the a→b simplex link of the named trunk: the first
// trunk joining the pair, for either engine.
func resolveTrunk(g *topology.Graph, a, b string) (topology.LinkID, error) {
	na, ok := g.Lookup(a)
	if !ok {
		return topology.NoLink, fmt.Errorf("unknown node %q", a)
	}
	nb, ok := g.Lookup(b)
	if !ok {
		return topology.NoLink, fmt.Errorf("unknown node %q", b)
	}
	l, ok := g.FindTrunk(na, nb)
	if !ok {
		return topology.NoLink, fmt.Errorf("no trunk joins %s and %s", a, b)
	}
	return l, nil
}

// nodeDown fails every up trunk at the node, remembering which ones for
// the matching nodeUp.
func (r *runner) nodeDown(id topology.NodeID) {
	if r.nodeDowned == nil {
		r.nodeDowned = make(map[topology.NodeID][]topology.LinkID)
	}
	var took []topology.LinkID
	for _, l := range r.cfg.Graph.Out(id) {
		if !r.net.LinkIsDown(l) {
			r.net.SetTrunkDown(l)
			took = append(took, l)
		}
	}
	r.nodeDowned[id] = took
}

// nodeUp restores the trunks the node's restart took down — a trunk a
// separate TrunkDown event holds down stays down.
func (r *runner) nodeUp(id topology.NodeID) {
	for _, l := range r.nodeDowned[id] {
		r.net.SetTrunkUp(l)
	}
	delete(r.nodeDowned, id)
}

// checkpoint audits every invariant and records the outcome.
func (r *runner) checkpoint(now sim.Time) {
	cp := CheckpointResult{At: now, Conservation: r.net.Conservation(), RoutingInFlight: r.net.RoutingInFlight(),
		QuietOrigins: r.net.QuietOrigins()}
	r.res.record(cp, "transmitter", r.net.TransmitterAudit(), r.net.ConvergenceAudit())
}

// record appends one checkpoint and its violations: the ledger's, the engine
// audit's (named check) and the convergence audit's.
func (res *Result) record(cp CheckpointResult, check string, audit, converged error) {
	add := func(check string, err error) {
		if err != nil {
			res.Violations = append(res.Violations, Violation{At: cp.At, Check: check, Err: err.Error()})
		}
	}
	add("conservation", cp.Conservation.Err())
	add(check, audit)
	add("convergence", converged)
	res.Checkpoints = append(res.Checkpoints, cp)
}

// RunBatch runs the scenario once per seed, each seed in its own
// independent Network, fanned over the cores. Workers write disjoint result
// slots, so the returned slice — indexed like seeds — is byte-for-byte
// identical at any GOMAXPROCS. The first setup error (if any) is returned;
// invariant violations live in the per-seed Results.
func RunBatch(cfg Config, sc *Scenario, seeds []int64) ([]Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	results := make([]Result, len(seeds))
	errs := make([]error, len(seeds))
	fanout.Do(len(seeds), func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			c := cfg
			c.Seed = seeds[i]
			c.Trace = nil // a shared ring across goroutines would race
			results[i], errs[i] = Run(c, sc)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

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

// ConvergenceGrace is how long after the last topology change a checkpoint
// waits before treating a cost-database mismatch as a violation: floods
// lost across a partition are only repaired by the periodic refresh
// (node.MaxUpdateInterval), which itself rides on a measurement period,
// plus a small margin for the flood to drain.
const ConvergenceGrace = node.MaxUpdateInterval + node.MeasurementPeriod + 5*sim.Second

// Config describes how to build the network under test. It mirrors
// network.Config; RunBatch varies only the seed between runs.
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
	// Background and BackgroundEpoch configure the hybrid fluid/packet
	// engine (see network.Config). Scenarios containing BackgroundSurge or
	// SwitchBackgroundMatrix events require a non-nil Background; schedule
	// reports the mismatch as a setup error before the run starts.
	Background      *traffic.Matrix
	BackgroundEpoch sim.Time
	// Trace, when non-nil, receives the network's event ring. RunBatch
	// ignores it: a shared ring across concurrent seeds would race.
	Trace *trace.Ring
	// StopOnViolation freezes the simulation at the first checkpoint that
	// finds a violated invariant, leaving Result.StoppedAt at that instant.
	StopOnViolation bool
	// Prepare, when non-nil, is called on the freshly built network before
	// the scenario starts — the hook for TrackLink / TrackLinkCost. Under
	// RunBatch it runs once per seed, concurrently; it must not touch
	// shared state.
	Prepare func(*network.Network)
}

// Violation is one invariant failure found at a checkpoint.
type Violation struct {
	At    sim.Time
	Check string // "conservation", "transmitter" or "convergence"
	Err   string
}

// CheckpointResult is the audit outcome at one checkpoint.
type CheckpointResult struct {
	At              sim.Time
	Conservation    network.Conservation
	RoutingInFlight int
	// ConvergenceChecked is false when the checkpoint fell inside the
	// post-change grace window (or floods were still in flight) and the
	// convergence audit was therefore skipped.
	ConvergenceChecked bool
}

// Result is one seed's run: the final report, every checkpoint's audit,
// and any violations found.
type Result struct {
	Scenario    string
	Seed        int64
	Report      network.Report
	Checkpoints []CheckpointResult
	Violations  []Violation
	// StoppedAt is the freeze instant when StopOnViolation fired (zero
	// when the run completed).
	StoppedAt sim.Time
}

// Run executes the scenario once. The returned error covers setup problems
// only (an invalid scenario, an unknown node name); invariant violations
// are data, recorded in Result.Violations.
func Run(cfg Config, sc *Scenario) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	net := network.New(network.Config{
		Graph:           cfg.Graph,
		Matrix:          cfg.Matrix,
		Metric:          cfg.Metric,
		Seed:            cfg.Seed,
		Warmup:          cfg.Warmup,
		Multipath:       cfg.Multipath,
		ModuleFactory:   cfg.ModuleFactory,
		Trace:           cfg.Trace,
		Background:      cfg.Background,
		BackgroundEpoch: cfg.BackgroundEpoch,
	})
	if cfg.Prepare != nil {
		cfg.Prepare(net)
	}
	r := &runner{cfg: cfg, net: net, res: Result{Scenario: sc.Name, Seed: cfg.Seed}}
	if err := r.schedule(sc); err != nil {
		return Result{}, err
	}
	net.Run(sc.Duration)
	// The run may have frozen early on a violation; audit wherever it
	// ended, unless a scheduled checkpoint already covered that instant.
	if now := net.Kernel().Now(); len(r.res.Checkpoints) == 0 ||
		r.res.Checkpoints[len(r.res.Checkpoints)-1].At != now {
		r.checkpoint(now)
	}
	r.res.Report = net.Report()
	return r.res, nil
}

// runner holds one run's mutable state.
type runner struct {
	cfg Config
	net *network.Network
	res Result

	// lastTopoChange gates the convergence audit; it starts at zero, so the
	// first ConvergenceGrace of the run is conservatively unaudited.
	lastTopoChange sim.Time
	// nodeDowned remembers which trunks each NodeDown actually failed, so
	// the matching NodeUp restores exactly those.
	nodeDowned map[topology.NodeID][]topology.LinkID
	stopped    bool
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
			link, err := r.resolveTrunk(ev.A, ev.B)
			if err != nil {
				return fmt.Errorf("scenario %q: %s at %v: %w", sc.Name, ev.Kind, ev.At, err)
			}
			down := ev.Kind == TrunkDown
			fire = func(now sim.Time) {
				r.lastTopoChange = now
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
			fire = func(now sim.Time) {
				r.lastTopoChange = now
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
		case SwitchBackgroundMatrix:
			if r.cfg.Background == nil {
				return fmt.Errorf("scenario %q: %s at %v requires a background matrix (hybrid mode)",
					sc.Name, ev.Kind, ev.At)
			}
			fire = func(sim.Time) { r.net.SetBackgroundMatrix(ev.Matrix) }
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
		// Fire-and-forget: checkpoints run until the scenario's horizon;
		// StopOnViolation freezes the kernel rather than cancelling them.
		_ = k.Every(sc.CheckEvery, func(now sim.Time) { r.checkpoint(now) })
	}
	return nil
}

// resolveTrunk finds the a→b simplex link of the named trunk.
func (r *runner) resolveTrunk(a, b string) (topology.LinkID, error) {
	g := r.cfg.Graph
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

// checkpoint audits every invariant and records the outcome. On a
// violation under StopOnViolation it freezes the run.
func (r *runner) checkpoint(now sim.Time) {
	if r.stopped {
		return
	}
	cp := CheckpointResult{
		At:              now,
		Conservation:    r.net.Conservation(),
		RoutingInFlight: r.net.RoutingInFlight(),
	}
	var violations []Violation
	if err := cp.Conservation.Err(); err != nil {
		violations = append(violations, Violation{At: now, Check: "conservation", Err: err.Error()})
	}
	if err := r.net.TransmitterAudit(); err != nil {
		violations = append(violations, Violation{At: now, Check: "transmitter", Err: err.Error()})
	}
	if now-r.lastTopoChange >= ConvergenceGrace && cp.RoutingInFlight == 0 {
		cp.ConvergenceChecked = true
		if err := r.net.ConvergenceAudit(); err != nil {
			violations = append(violations, Violation{At: now, Check: "convergence", Err: err.Error()})
		}
	}
	r.res.Checkpoints = append(r.res.Checkpoints, cp)
	r.res.Violations = append(r.res.Violations, violations...)
	if len(violations) > 0 && r.cfg.StopOnViolation {
		r.stopped = true
		r.res.StoppedAt = now
		r.net.Stop()
	}
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

package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config describes how to build the network Run tests: bench/, the hybrid
// pillar and the engine comparisons. RunSharded takes a shard.Config instead.
type Config struct {
	Graph     *topology.Graph
	Matrix    *traffic.Matrix
	Metric    node.MetricKind
	Seed      int64
	Warmup    sim.Time
	Multipath bool
	// Ablations switch HN-SPF's stabilization mechanisms off (see
	// network.Config); shard.Config carries the same field.
	Ablations []core.Option
	// Background configures the hybrid fluid/packet engine (see
	// network.Config). A scenario with a BackgroundSurge event requires a
	// non-nil Background; schedule reports the mismatch as a setup error
	// before the run starts.
	Background *traffic.Matrix
	// Trace, when non-nil, receives the network's trace events, and Track
	// names links whose samples it records (network.Config).
	Trace *trace.Ring
	Track []node.LinkSeries
	// Prepare, when non-nil, is called on the freshly built network before
	// the scenario starts. bench/ is its only caller.
	Prepare func(*network.Network)
}

// Violation is one invariant failure found at a checkpoint.
type Violation struct {
	At sim.Time
	// Check is "conservation", "convergence", or the engine audit's name:
	// "transmitter" where Run records it, "custody" where RunSharded does.
	Check string
	Err   string
}

// CheckpointResult is the audit outcome at one checkpoint.
type CheckpointResult struct {
	At           sim.Time
	Conservation node.Conservation
	// RoutingInFlight counts the routing packets — update copies or 1969
	// vectors — queued, on a transmitter or propagating.
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
// are data, recorded in Result.Violations. Every step of the timeline is an
// event that fires before every event of the network's own at its instant
// (network.Config.Script), where RunSharded makes it between barrier windows.
func Run(cfg Config, sc *Scenario) (Result, error) {
	acts, err := timeline(cfg.Graph, sc, cfg.Background != nil)
	if err != nil {
		return Result{}, err
	}
	r := &runner{res: Result{Scenario: sc.Name, Seed: cfg.Seed}}
	net := network.New(network.Config{
		Graph:      cfg.Graph,
		Matrix:     cfg.Matrix,
		Metric:     cfg.Metric,
		Seed:       cfg.Seed,
		Warmup:     cfg.Warmup,
		Multipath:  cfg.Multipath,
		Ablations:  cfg.Ablations,
		Trace:      cfg.Trace,
		Track:      cfg.Track,
		Background: cfg.Background,
		Script: func(n *network.Network) {
			for _, a := range acts {
				// Fire-and-forget: Validate keeps every step inside [0, Duration].
				_, _ = n.Kernel().ScheduleAt(a.At, func(now sim.Time) { r.apply(a, now) })
			}
		},
	})
	r.net = net
	if cfg.Prepare != nil {
		cfg.Prepare(net)
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
	net *network.Network
	res Result
}

// apply takes one step of the timeline on the network.
func (r *runner) apply(a action, now sim.Time) {
	switch a.Kind {
	case TrunkDown:
		r.net.SetTrunkDown(a.link)
	case TrunkUp:
		r.net.SetTrunkUp(a.link)
	case Surge:
		r.net.ScaleTraffic(a.Factor)
	case SwitchMatrix:
		r.net.SetMatrix(a.Matrix)
	case BackgroundSurge:
		r.net.ScaleBackground(a.Factor)
	case Checkpoint:
		r.checkpoint(now)
	}
}

// An action is one step of a run's timeline: a scripted event, its trunk
// resolved, a node restart as the trunk events it causes, or a periodic
// checkpoint.
type action struct {
	Event
	link topology.LinkID // the a→b link of a TrunkDown or TrunkUp
}

// timeline validates sc and resolves it against g for either engine: the
// events in sorted order, then, each after the script's events of its
// instant, the CheckEvery checkpoints up to the horizon. A background surge
// needs a fluid background, which only the network engine carries (with
// background set). Both engines fail and restore only scripted trunks, so
// the timeline alone says which trunks a NodeDown fails — those at the node
// that are up — and which the matching NodeUp restores: those it failed,
// not one a separate TrunkDown holds down.
func timeline(g *topology.Graph, sc *Scenario, background bool) ([]action, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.CheckEvery > 0 && sc.Duration/sc.CheckEvery > maxCheckpoints { // each is a step of the timeline
		return nil, fmt.Errorf("scenario %q: check-every %v audits more than %d times", sc.Name, sc.CheckEvery, maxCheckpoints)
	}
	var acts []action
	down := map[int]bool{}                          // by trunk: held down by the timeline so far
	took := map[topology.NodeID][]topology.LinkID{} // by restarted node: the links its NodeDown failed
	for _, ev := range sc.sorted() {
		fail := func(err error) ([]action, error) {
			return nil, fmt.Errorf("scenario %q: %s at %v: %w", sc.Name, ev.Kind, ev.At, err)
		}
		switch ev.Kind {
		case TrunkDown, TrunkUp:
			l, err := resolveTrunk(g, ev.A, ev.B)
			if err != nil {
				return fail(err)
			}
			down[g.Link(l).Trunk] = ev.Kind == TrunkDown
			acts = append(acts, action{ev, l})
		case NodeDown, NodeUp:
			id, ok := g.Lookup(ev.Node)
			if !ok {
				return fail(fmt.Errorf("unknown node %q", ev.Node))
			}
			kind, links := TrunkUp, took[id]
			delete(took, id)
			if ev.Kind == NodeDown {
				kind, links = TrunkDown, nil
				for _, l := range g.Out(id) {
					if !down[g.Link(l).Trunk] {
						links = append(links, l)
					}
				}
				took[id] = links
			}
			for _, l := range links {
				down[g.Link(l).Trunk] = kind == TrunkDown
				acts = append(acts, action{Event{At: ev.At, Kind: kind}, l})
			}
		case BackgroundSurge:
			if !background {
				return nil, fmt.Errorf("scenario %q: %s at %v requires a background matrix (hybrid mode)", sc.Name, ev.Kind, ev.At)
			}
			fallthrough
		default:
			acts = append(acts, action{Event: ev})
		}
	}
	for at := sc.CheckEvery; sc.CheckEvery > 0 && at <= sc.Duration; at += sc.CheckEvery {
		acts = append(acts, action{Event: Event{At: at, Kind: Checkpoint}})
	}
	slices.SortStableFunc(acts, func(a, b action) int { return cmp.Compare(a.At, b.At) })
	return acts, nil
}

// maxCheckpoints bounds the CheckEvery audits of one run.
const maxCheckpoints = 1 << 20

// resolveTrunk finds the a→b simplex link of the named trunk: the first
// trunk joining the pair.
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

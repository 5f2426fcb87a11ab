package scenario

import (
	"fmt"
	"slices"

	"repro/internal/shard"
	"repro/internal/sim"
)

// RunSharded executes the scenario once on the sharded engine cfg describes.
// The script's trunk events, resolved as Run resolves them, replace
// cfg.Faults, which the engine schedules through its one fault path before
// the first Run. The run then advances from checkpoint to checkpoint — the
// CheckEvery multiples, the Checkpoint events and the horizon — and audits
// each: the composed conservation ledger, shard.(*Sim).Audit's custody and
// transmitter invariants ("custody"), and convergence for every origin with
// no update copy in flight. observe, when non-nil, is called after each
// checkpoint's audits, between Run invocations.
//
// The sharded engine fails and repairs trunks only: a node restart, a
// surge, a matrix switch or a background surge is a setup error naming the
// event, and so is a trunk event at 0 s, before the engine's first event.
// The returned simulator holds the trace and counters; the Result holds the
// report at the horizon, the checkpoints and the violations.
func RunSharded(cfg shard.Config, sc *Scenario, observe func(*shard.Sim)) (*shard.Sim, Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, Result{}, err
	}
	cfg.Faults = nil
	if err := cfg.Validate(); err != nil {
		return nil, Result{}, err
	}
	g := cfg.Graph
	stops := []sim.Time{sc.Duration}
	for at := sc.CheckEvery; sc.CheckEvery > 0 && at < sc.Duration; at += sc.CheckEvery {
		stops = append(stops, at)
	}
	for _, ev := range sc.sorted() {
		switch {
		case ev.Kind == Checkpoint:
			stops = append(stops, ev.At)
		case ev.Kind != TrunkDown && ev.Kind != TrunkUp:
			return nil, Result{}, fmt.Errorf("scenario %q: %s at %v: the sharded engine runs trunk events and checkpoints only",
				sc.Name, ev.Kind, ev.At)
		case ev.At == 0:
			return nil, Result{}, fmt.Errorf("scenario %q: %s at %v: the sharded engine faults no trunk before its first event",
				sc.Name, ev.Kind, ev.At)
		default:
			l, err := resolveTrunk(g, ev.A, ev.B)
			if err != nil {
				return nil, Result{}, fmt.Errorf("scenario %q: %s at %v: %w", sc.Name, ev.Kind, ev.At, err)
			}
			cfg.Faults = append(cfg.Faults, shard.Fault{Trunk: g.Link(l).Trunk, At: ev.At, Up: ev.Kind == TrunkUp})
		}
	}
	s, err := shard.New(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	slices.Sort(stops)
	res := Result{Scenario: sc.Name, Seed: cfg.Seed}
	for _, at := range slices.Compact(stops) {
		s.Run(at)
		r := s.Report()
		cp := CheckpointResult{At: at, Conservation: r.Conservation, RoutingInFlight: int(r.CtrlInFlight),
			QuietOrigins: s.QuietOrigins()}
		res.record(cp, "custody", s.Audit(), s.ConvergenceAudit())
		res.Report = r // the last stop is the horizon
		if observe != nil {
			observe(s)
		}
	}
	return s, res, nil
}

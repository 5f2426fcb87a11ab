package scenario

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/sim"
)

// RunSharded executes the scenario once on the sharded engine cfg describes,
// with the measured window opening at warmup (none at 0). The run advances
// from step to step of the timeline Run runs, and takes each between barrier
// windows, at the end of the instant before the step's — so before every
// event of the step's instant, as on the network engine: the warm-up
// (shard.(*Sim).OpenWindow), then each trunk event (ApplyFault; they replace
// cfg.Faults), surge (ScaleTraffic), matrix switch (SetMatrix) and
// checkpoint, in script order. A checkpoint audits the composed conservation
// ledger, shard.(*Sim).Audit's custody and transmitter invariants
// ("custody"), and convergence for every origin with no update copy in
// flight; so does the horizon, after every event of its instant, unless a
// checkpoint already covered it. observe, when non-nil, is called after each
// audit.
//
// A background surge is a setup error naming the event, as on the network
// engine without a background matrix: the sharded engine carries no fluid
// background. So is a trunk event or a matrix switch on the static plane. The
// returned simulator holds the trace and counters; the Result holds the
// report at the horizon, the checkpoints and the violations.
func RunSharded(cfg shard.Config, warmup sim.Time, sc *Scenario, observe func(*shard.Sim)) (*shard.Sim, Result, error) {
	acts, err := timeline(cfg.Graph, sc, false)
	if err != nil {
		return nil, Result{}, err
	}
	for _, a := range acts {
		if (a.Kind == TrunkDown || a.Kind == TrunkUp || a.Kind == SwitchMatrix) && !cfg.Adaptive {
			return nil, Result{}, fmt.Errorf("scenario %q: %s at %v needs the adaptive plane: static routes hear of no failure and route only the destinations drawn at set-up",
				sc.Name, a.Kind, a.At)
		}
	}
	cfg.Faults = nil
	s, err := shard.New(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	res := Result{Scenario: sc.Name, Seed: cfg.Seed}
	audit := func(at sim.Time) {
		r := s.Report()
		cp := CheckpointResult{At: at, Conservation: r.Conservation, RoutingInFlight: int(shard.Compose(s.Ledgers()).CtrlInFlight),
			QuietOrigins: s.QuietOrigins()}
		res.record(cp, "custody", s.Audit(), s.ConvergenceAudit())
		if observe != nil {
			observe(s)
		}
	}
	open := func(until sim.Time) {
		if warmup > 0 && warmup <= until {
			s.Run(warmup - 1)
			s.OpenWindow(warmup)
			warmup = 0
		}
	}
	for _, a := range acts {
		open(a.At)
		s.Run(a.At - 1)
		switch a.Kind {
		case TrunkDown, TrunkUp:
			s.ApplyFault(shard.Fault{Trunk: cfg.Graph.Link(a.link).Trunk, At: a.At, Up: a.Kind == TrunkUp})
		case Surge:
			s.ScaleTraffic(a.Factor)
		case SwitchMatrix:
			s.SetMatrix(a.Matrix, a.At)
		case Checkpoint:
			audit(a.At)
		}
	}
	open(sc.Duration)
	s.Run(sc.Duration)
	if len(res.Checkpoints) == 0 || res.Checkpoints[len(res.Checkpoints)-1].At != sc.Duration {
		audit(sc.Duration)
	}
	res.Report = s.Report()
	return s, res, nil
}

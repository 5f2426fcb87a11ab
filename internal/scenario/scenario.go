// Package scenario is the fault-injection engine of the simulator: it runs
// either packet engine under a declarative, timed script of failures and
// traffic shifts — trunk outages and repairs, flapping trunks, node
// restarts, traffic surges and matrix switches — and audits the
// simulator's own invariants at every checkpoint:
//
//   - packet conservation: every packet offered inside the measurement
//     window is delivered, in exactly one drop class, or demonstrably
//     still in flight;
//   - single transmitter per link: a trunk never runs two concurrent
//     transmission chains, and never transmits while down (on the sharded
//     engine, with the custody ledgers of shard.(*Sim).Audit);
//   - convergence: at every checkpoint, every PSN holds the latest update
//     of each origin in its connected component that has no copy of an
//     update in flight (node.AuditConvergence).
//
// Scenarios come from the builder API (NewScenario().DownAt(...)...) or
// from the line-oriented script format (Parse; see the grammar
// in script.go). Both engines run one timeline of a script (timeline), each
// step before every event of its instant: RunSharded on internal/shard,
// every step between barrier windows, is the runner arpanet.Run, the
// checker's scripted pillars and this package's tests use; Run executes one
// seed on internal/network, every step an event on the network's kernel,
// and remains only for bench/, the checker's hybrid pillar (the fluid
// background) and the tests that compare the two engines.
package scenario

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// Kind enumerates the scripted event types.
type Kind int

const (
	// TrunkDown fails the trunk joining nodes A and B.
	TrunkDown Kind = iota
	// TrunkUp repairs the trunk joining nodes A and B.
	TrunkUp
	// NodeDown fails every up trunk at Node (the first half of a restart).
	NodeDown
	// NodeUp repairs the trunks that NodeDown took down at Node — not
	// trunks a separate TrunkDown is holding down.
	NodeUp
	// Surge multiplies every source's packet rate by Factor.
	Surge
	// SwitchMatrix replaces the traffic matrix with Matrix.
	SwitchMatrix
	// Checkpoint runs the invariant audits at At (in addition to the
	// periodic CheckEvery checkpoints and the final one).
	Checkpoint
	// BackgroundSurge multiplies the hybrid engine's fluid background
	// demand by Factor (requires Config.Background).
	BackgroundSurge
)

// String returns the script keyword for the kind.
func (k Kind) String() string {
	switch k {
	case TrunkDown:
		return "down"
	case TrunkUp:
		return "up"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case Surge:
		return "surge"
	case SwitchMatrix:
		return "matrix"
	case Checkpoint:
		return "checkpoint"
	case BackgroundSurge:
		return "surge background"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed action in a scenario. Which fields matter depends on
// Kind; trunk endpoints and nodes are named, resolved against the graph at
// Run time.
type Event struct {
	At     sim.Time
	Kind   Kind
	A, B   string          // trunk endpoints (TrunkDown / TrunkUp)
	Node   string          // restart target (NodeDown / NodeUp)
	Factor float64         // rate multiplier (Surge)
	Matrix *traffic.Matrix // replacement matrix (SwitchMatrix)
}

// Scenario is a named, timed script. Events may be appended in any order;
// Run executes them in time order (stably, so same-time events keep their
// script order).
type Scenario struct {
	Name     string
	Duration sim.Time
	// CheckEvery, when positive, audits the invariants periodically on top
	// of any explicit Checkpoint events. The final instant of the run is
	// always a checkpoint.
	CheckEvery sim.Time
	Events     []Event
}

// NewScenario starts an empty scenario of the given length.
func NewScenario(name string, duration sim.Time) *Scenario {
	return &Scenario{Name: name, Duration: duration}
}

// DownAt fails the a—b trunk at time at.
func (s *Scenario) DownAt(at sim.Time, a, b string) *Scenario {
	s.Events = append(s.Events, Event{At: at, Kind: TrunkDown, A: a, B: b})
	return s
}

// UpAt repairs the a—b trunk at time at.
func (s *Scenario) UpAt(at sim.Time, a, b string) *Scenario {
	s.Events = append(s.Events, Event{At: at, Kind: TrunkUp, A: a, B: b})
	return s
}

// FlapAt cycles the a—b trunk: starting at at, each cycle fails the trunk
// and repairs it half a period later, cycles times.
func (s *Scenario) FlapAt(at sim.Time, a, b string, period sim.Time, cycles int) *Scenario {
	for i := 0; i < cycles; i++ {
		start := at + sim.Time(i)*period
		s.DownAt(start, a, b)
		s.UpAt(start+period/2, a, b)
	}
	return s
}

// RestartAt takes every trunk at the node down at at and restores them
// after the outage duration d.
func (s *Scenario) RestartAt(at sim.Time, node string, d sim.Time) *Scenario {
	s.Events = append(s.Events,
		Event{At: at, Kind: NodeDown, Node: node},
		Event{At: at + d, Kind: NodeUp, Node: node})
	return s
}

// SurgeAt multiplies every source's packet rate by factor at time at.
func (s *Scenario) SurgeAt(at sim.Time, factor float64) *Scenario {
	s.Events = append(s.Events, Event{At: at, Kind: Surge, Factor: factor})
	return s
}

// BackgroundSurgeAt multiplies the fluid background demand by factor at
// time at. The run must configure a background matrix.
func (s *Scenario) BackgroundSurgeAt(at sim.Time, factor float64) *Scenario {
	s.Events = append(s.Events, Event{At: at, Kind: BackgroundSurge, Factor: factor})
	return s
}

// CheckpointAt audits the invariants at time at.
func (s *Scenario) CheckpointAt(at sim.Time) *Scenario {
	s.Events = append(s.Events, Event{At: at, Kind: Checkpoint})
	return s
}

// Validate checks the scenario is runnable: a positive duration and every
// event inside [0, Duration]. A nil scenario — all a failed Parse returns —
// is not, so a dropped Parse error stops at the first Run.
func (s *Scenario) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil scenario (was a Parse error dropped?)")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %q: duration must be positive", s.Name)
	}
	if s.CheckEvery < 0 {
		return fmt.Errorf("scenario %q: check-every must not be negative", s.Name)
	}
	for _, ev := range s.Events {
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("scenario %q: %s event at %v outside [0, %v]",
				s.Name, ev.Kind, ev.At, s.Duration)
		}
		if (ev.Kind == Surge || ev.Kind == BackgroundSurge) && ev.Factor <= 0 {
			return fmt.Errorf("scenario %q: %s factor %v must be positive", s.Name, ev.Kind, ev.Factor)
		}
		if ev.Kind == SwitchMatrix && ev.Matrix == nil {
			return fmt.Errorf("scenario %q: %s event without a matrix", s.Name, ev.Kind)
		}
	}
	return nil
}

// sorted returns the events in stable time order.
func (s *Scenario) sorted() []Event {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

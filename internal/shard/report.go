package shard

// Reporting and auditing. Report composes in fixed global order (ledgers
// by shard index, the window by node and link ID), so its rendered form is
// as partition-independent as the trace. Audit enforces the custody-ledger
// invariants — per-shard balance, composed balance, and the wire identity
// ΣExported == ΣImported, user and control packets apiece — plus the
// single-transmitter invariant (node.Trunk.Audit) on every link, that no
// kernel refused a schedule, and that every update a router holds is intact.

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/spf"
	"repro/internal/topology"
)

// Report is node.Report, the one report of both packet engines: here its
// window opens at boot.
type Report = node.Report

// Ledgers snapshots every shard's custody ledger, in-flight terms included.
func (s *Sim) Ledgers() []Ledger {
	out := make([]Ledger, len(s.shards))
	for i, sh := range s.shards {
		l := sh.led
		l.User.InFlight, l.CtrlInFlight = sh.inFlight()
		out[i] = l
	}
	return out
}

// Report composes the measured window (node.Window.Report) over the nodes in
// node order and the links in link order, with the composed ledger and the
// shards' update-copy counters. Call it between Run invocations, when no
// packet is on a wire.
func (s *Sim) Report() Report {
	metric := "static routes"
	if s.cfg.Adaptive {
		metric = s.cfg.Metric.String()
	}
	t := Compose(s.Ledgers())
	r := s.win.Report(metric, s.shards[0].kernel.Now(), t.Global())
	r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops, r.CtrlInFlight = t.CtrlGenerated, t.CtrlConsumed, t.CtrlOutageDrops, t.CtrlInFlight
	return r
}

// Audit checks every custody, transmitter, schedule and shared-payload
// invariant. Call it between Run invocations: Run returns only after
// deliverWires has emptied every wire, so by then each exported packet has
// been imported.
func (s *Sim) Audit() error {
	ledgers := s.Ledgers()
	for i, l := range ledgers {
		if err := l.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	t := Compose(ledgers)
	if err := t.Global().Err(); err != nil {
		return fmt.Errorf("composed: %w", err)
	}
	if t.Exported != t.Imported {
		return fmt.Errorf("wire imbalance: exported %d, imported %d", t.Exported, t.Imported)
	}
	if t.CtrlExported != t.CtrlImported {
		return fmt.Errorf("control wire imbalance: exported %d, imported %d", t.CtrlExported, t.CtrlImported)
	}
	for _, ls := range s.linkAt {
		if err := ls.Audit(); err != nil {
			return fmt.Errorf("link %d (%s->%s): %w", ls.l.ID,
				s.g.Node(ls.l.From).Name, s.g.Node(ls.l.To).Name, err)
		}
	}
	for i, sh := range s.shards {
		if err := node.AuditRun(sh.kernel, sh.routers); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// ConvergenceAudit runs node.AuditConvergence over every shard's routers,
// its per-origin counts held to the control copies the shards hold (the
// wires are empty between Run invocations): every PSN holds the latest
// update of each reachable origin with no update copy in flight. It stays
// out of Audit, which stays linear in the network's size. Without Adaptive
// there are no routers, and it returns nil. Call it between Run
// invocations.
func (s *Sim) ConvergenceAudit() error {
	if !s.cfg.Adaptive {
		return nil
	}
	var held int64
	for _, sh := range s.shards {
		_, ctrl := sh.inFlight()
		held += ctrl
	}
	routers := make([]*spf.IncrementalRouter, len(s.nodeAt))
	for id, n := range s.nodeAt {
		routers[id] = n.Router
	}
	return node.AuditConvergence(s.g, routers, func(l topology.LinkID) bool { return s.linkAt[l].Down() }, s.updatesInFlight(), int(held))
}

// QuietOrigins returns how many origins have no update copy in flight: those
// ConvergenceAudit checks (0 without Adaptive). Call it between Run
// invocations.
func (s *Sim) QuietOrigins() int {
	if !s.cfg.Adaptive {
		return 0
	}
	return node.QuietOrigins(s.updatesInFlight())
}

// updatesInFlight sums the shards' per-origin update copy counts.
func (s *Sim) updatesInFlight() []int {
	sum := make([]int, s.g.NumNodes())
	for _, sh := range s.shards {
		for o, c := range sh.updatesInFlight {
			sum[o] += c
		}
	}
	return sum
}

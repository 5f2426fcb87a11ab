package shard

// Reporting and auditing. Report aggregates in fixed global order (ledgers
// by shard index, delay sums by node ID), so its rendered form is as
// partition-independent as the trace. Audit enforces the custody-ledger
// invariants — per-shard balance, composed balance, and the wire identity
// ΣExported == ΣImported, user and control packets apiece — plus the
// single-transmitter invariant (node.Trunk.Audit) on every link, that no
// kernel refused a schedule, and that every update a router holds is intact.

import (
	"fmt"
	"strings"

	"repro/internal/node"
	"repro/internal/spf"
	"repro/internal/topology"
)

// Report is a run summary, identical for every shard count.
type Report struct {
	Generated    int64
	Delivered    int64
	BufferDrops  int64
	NoRouteDrops int64
	LoopDrops    int64
	OutageDrops  int64
	InFlight     int64
	AvgDelay     float64 // seconds, over delivered packets
	AvgHops      float64
	Conservation node.Conservation

	// Control plane (all zero without Config.Adaptive).
	Originated      int64 // routing updates flooded
	CtrlGenerated   int64 // update copies enqueued
	CtrlConsumed    int64
	CtrlOutageDrops int64
	CtrlInFlight    int64
}

// Ledgers snapshots every shard's custody ledger, in-flight terms included.
func (s *Sim) Ledgers() []Ledger {
	out := make([]Ledger, len(s.shards))
	for i, sh := range s.shards {
		l := sh.led
		l.InFlight, l.CtrlInFlight = sh.inFlight()
		out[i] = l
	}
	return out
}

// Report aggregates the shard ledgers and delivery statistics. Call it
// between Run invocations, when no packet is on a wire.
func (s *Sim) Report() Report {
	var r Report
	for _, l := range s.Ledgers() {
		r.Generated += l.Generated
		r.Delivered += l.Delivered
		r.BufferDrops += l.BufferDrops
		r.NoRouteDrops += l.NoRouteDrops
		r.LoopDrops += l.LoopDrops
		r.OutageDrops += l.OutageDrops
		r.InFlight += l.InFlight
		r.CtrlGenerated += l.CtrlGenerated
		r.CtrlConsumed += l.CtrlConsumed
		r.CtrlOutageDrops += l.CtrlOutageDrops
		r.CtrlInFlight += l.CtrlInFlight
	}
	for _, sh := range s.shards {
		r.Originated += sh.origs
	}
	var delay float64
	var hops, delivered int64
	for _, n := range s.nodeAt { // global node order: float sum is partition-independent
		delivered += n.delivered
		delay += n.delaySum
		hops += n.hopSum
	}
	if delivered > 0 {
		r.AvgDelay = delay / float64(delivered)
		r.AvgHops = float64(hops) / float64(delivered)
	}
	r.Conservation = Compose(s.Ledgers())
	return r
}

// String renders the report with fixed formats for golden comparison. It
// deliberately omits the shard count and lookahead — the fields that
// legitimately differ between partitionings of the same run.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated   %d\n", r.Generated)
	fmt.Fprintf(&b, "delivered   %d\n", r.Delivered)
	fmt.Fprintf(&b, "drops       buffer=%d noroute=%d loop=%d outage=%d\n",
		r.BufferDrops, r.NoRouteDrops, r.LoopDrops, r.OutageDrops)
	fmt.Fprintf(&b, "in-flight   %d\n", r.InFlight)
	fmt.Fprintf(&b, "avg-delay   %.9fs\n", r.AvgDelay)
	fmt.Fprintf(&b, "avg-hops    %.6f\n", r.AvgHops)
	fmt.Fprintf(&b, "conserved   %v\n", r.Conservation.Balanced())
	// The control line appears only for adaptive runs, keeping static-mode
	// renderings (and their committed goldens) byte-identical to before.
	if r.Originated > 0 || r.CtrlGenerated > 0 {
		fmt.Fprintf(&b, "control     originated=%d copies=%d consumed=%d outage=%d in-flight=%d\n",
			r.Originated, r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops, r.CtrlInFlight)
	}
	return b.String()
}

// Audit checks every custody, transmitter, schedule and shared-payload
// invariant. Call it between Run invocations: Run returns only after
// deliverWires has emptied every wire, so by then each exported packet has
// been imported.
func (s *Sim) Audit() error {
	ledgers := s.Ledgers()
	var exported, imported, ctrlExported, ctrlImported int64
	for i, l := range ledgers {
		if err := l.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		exported += l.Exported
		imported += l.Imported
		ctrlExported += l.CtrlExported
		ctrlImported += l.CtrlImported
	}
	if err := Compose(ledgers).Err(); err != nil {
		return fmt.Errorf("composed: %w", err)
	}
	if exported != imported {
		return fmt.Errorf("wire imbalance: exported %d, imported %d", exported, imported)
	}
	if ctrlExported != ctrlImported {
		return fmt.Errorf("control wire imbalance: exported %d, imported %d", ctrlExported, ctrlImported)
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

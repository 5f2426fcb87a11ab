package network

// Invariant auditing and runtime traffic control for the scenario engine.
//
// The auditors check, from outside the event loop, that the simulator's
// books balance: every offered packet is delivered, dropped into exactly
// one drop class, or still demonstrably in flight; every trunk runs at most
// one transmitter; and every PSN holds the latest update of every reachable
// origin whose flood has quiesced. internal/scenario calls these at every
// checkpoint, turning the failure-path bugfixes into permanently enforced
// invariants.

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Conservation computes the current packet ledger. The in-flight term is
// counted by walking the queues and transmitters plus the propagation
// counter — independently of the terminal counters — so a packet destroyed
// without being booked into a drop class unbalances the ledger instead of
// hiding.
func (n *Network) Conservation() Conservation {
	c := n.led
	c.InFlight = int64(n.propUser)
	for _, ls := range n.links {
		user, _ := ls.Custody()
		c.InFlight += user
	}
	return c
}

// RoutingInFlight returns the number of routing packets (flooded updates
// and distance-vector exchanges) currently queued, on a transmitter, or
// propagating. Zero means the last flood has fully quiesced.
func (n *Network) RoutingInFlight() int {
	inFlight := n.propRouting
	for _, ls := range n.links {
		_, routing := ls.Custody()
		inFlight += int(routing)
	}
	return inFlight
}

// TransmitterAudit checks the single-transmitter invariant (node.Trunk.Audit)
// on every link and names the first one that breaks it.
func (n *Network) TransmitterAudit() error {
	for _, ls := range n.links {
		if err := ls.Audit(); err != nil {
			return fmt.Errorf("link %d (%s->%s): %w", ls.link.ID,
				n.g.Node(ls.link.From).Name, n.g.Node(ls.link.To).Name, err)
		}
	}
	return nil
}

// ConvergenceAudit checks node.AuditRun's two invariants, then
// node.AuditConvergence over the PSNs' routers, its per-origin counts held
// to the routing packets queued, on a transmitter or propagating.
func (n *Network) ConvergenceAudit() error {
	if err := node.AuditRun(n.kernel, n.routers); err != nil {
		return err
	}
	routers := make([]*spf.IncrementalRouter, len(n.psns))
	for _, p := range n.psns {
		routers[p.ID] = p.Router
	}
	return node.AuditConvergence(n.g, routers, n.LinkIsDown, n.updatesInFlight, n.RoutingInFlight())
}

// QuietOrigins returns how many origins have no copy of a flooded update in
// flight: those ConvergenceAudit checks.
func (n *Network) QuietOrigins() int { return n.updatesInFlight.Quiet() }

// --- runtime traffic control ---------------------------------------------

// ScaleTraffic multiplies every source's packet rate by factor, effective
// from each source's next arrival — the scenario engine's traffic surge.
func (n *Network) ScaleTraffic(factor float64) {
	if factor <= 0 {
		panic("network: traffic scale factor must be positive")
	}
	for _, p := range n.psns {
		p.Src.Rate *= factor
	}
}

// SetMatrix switches the network to a new traffic matrix mid-run: every
// source's rate and destination distribution are rebuilt, sources the old
// matrix had silenced are re-armed, and sources the new matrix silences
// park at their next arrival.
func (n *Network) SetMatrix(m *traffic.Matrix) {
	if m.NumNodes() != n.g.NumNodes() {
		panic("network: matrix size does not match graph")
	}
	n.cfg.Matrix = m
	n.setRows(m)
	n.armSources()
}

// ScaleBackground multiplies the fluid background demand by factor,
// effective immediately on the current fluid routes (the routes themselves
// adapt at the next epoch) — the scenario engine's background surge.
// Panics when the network has no background matrix.
func (n *Network) ScaleBackground(factor float64) {
	if n.fluid == nil {
		panic("network: ScaleBackground without a background matrix")
	}
	n.fluid.Scale(factor)
}

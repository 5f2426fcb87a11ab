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
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/trace"
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

// ConvergenceAudit checks node.AuditRun's two invariants in every mode;
// then, unless the 1969 distance-vector mode runs, node.AuditConvergence
// over the PSNs' routers, its per-origin counts held to the routing packets
// queued, on a transmitter or propagating.
func (n *Network) ConvergenceAudit() error {
	if err := node.AuditRun(n.kernel, n.routers); err != nil || n.cfg.Metric == node.BF1969 {
		return err
	}
	routers := make([]*spf.IncrementalRouter, len(n.psns))
	for _, p := range n.psns {
		routers[p.ID] = p.Router
	}
	return node.AuditConvergence(n.g, routers, n.LinkIsDown, n.updatesInFlight, n.RoutingInFlight())
}

// QuietOrigins returns how many origins have no copy of a flooded update in
// flight: those ConvergenceAudit checks. It is 0 in the 1969
// distance-vector mode, which floods nothing.
func (n *Network) QuietOrigins() int {
	if n.cfg.Metric == node.BF1969 {
		return 0
	}
	return node.QuietOrigins(n.updatesInFlight)
}

// StaleFloods returns, ascending, the origins that still have a copy of an
// update in flight but have originated nothing since t: floods older than t
// that have not landed. A refresh that falls due after t is not one.
func (n *Network) StaleFloods(t sim.Time) []topology.NodeID {
	var stale []topology.NodeID
	for o, c := range n.updatesInFlight {
		if c > 0 && n.psns[o].LastOriginated < t {
			stale = append(stale, topology.NodeID(o))
		}
	}
	return stale
}

// --- runtime traffic control ---------------------------------------------

// ScaleTraffic multiplies every source's packet rate by factor, effective
// from each source's next arrival — the scenario engine's traffic surge.
func (n *Network) ScaleTraffic(factor float64) {
	if factor <= 0 {
		panic("network: traffic scale factor must be positive")
	}
	for _, p := range n.psns {
		p.src.Rate *= factor
	}
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink, Cost: factor})
}

// SetMatrix switches the network to a new traffic matrix mid-run: every
// source's rate and destination distribution are rebuilt, sources the old
// matrix had silenced are re-armed, and sources the new matrix silences
// park at their next arrival. The report's minimum-path baseline follows
// the new matrix.
func (n *Network) SetMatrix(m *traffic.Matrix) {
	if m.NumNodes() != n.g.NumNodes() {
		panic("network: matrix size does not match graph")
	}
	n.cfg.Matrix = m
	n.win.MinPathHops = n.matrixMinPath()
	for _, p := range n.psns {
		p.src.SetRow(n.ids, m.Row(p.ID))
		if p.src.Rate > 0 && !p.sourceArmed {
			n.armSource(p)
		}
	}
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink})
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
	n.cfg.Trace.Add(trace.Event{At: n.kernel.Now(), Kind: trace.TrafficChange,
		Node: topology.NoNode, Link: topology.NoLink, Cost: factor})
}

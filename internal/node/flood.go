package node

// Rosen's updating protocol (§2.2), written once for both engines: a PSN
// floods an update carrying only its own lines' costs; a PSN that accepts a
// new update forwards it on every line except the one it arrived on; no PSN
// goes more than MaxUpdateInterval without originating; and the two ends of
// a repaired trunk send each other the updates they hold. The engines keep
// what differs between them — how a copy becomes a packet on a queue and
// what they count — and reach the protocol through PSN (psn.go) and Egress.

import (
	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// nextUpdate makes the PSN's next update: costs are its own lines', in
// g.Out order, and now becomes its origination time.
func (p *PSN) nextUpdate(g *topology.Graph, costs []float64, now sim.Time) *flooding.Update {
	p.LastOriginated = now
	p.Originated++
	return flooding.NewUpdate(p.ID, p.seq.Next(), g.Out(p.ID), costs)
}

// refreshDue reports whether MaxUpdateInterval has passed since the PSN
// last originated: the reliability refresh.
func (p *PSN) refreshDue(now sim.Time) bool {
	return now-p.LastOriginated >= MaxUpdateInterval
}

// originate floods the PSN's current line costs (DownCost for a line out of
// service) to the whole network, accepting them locally first. The costs are
// fresh because the update, and every router accepting it, keeps them.
func (p *PSN) originate(g *topology.Graph, e Egress, now sim.Time) {
	costs := make([]float64, g.Degree(p.ID))
	for i, l := range g.Out(p.ID) {
		costs[i] = p.trunk(l).Advertised()
	}
	u := p.nextUpdate(g, costs, now)
	p.accept(u, now)
	if p.Trace != nil {
		p.Trace.Add(trace.Event{At: now, Kind: trace.UpdateOriginate, Node: p.ID, Link: topology.NoLink, Pkt: u.Seq, Count: int64(len(costs))})
	}
	e.Originated(p, u, now)
	p.flood(g, e, u, topology.NoLink, now, now)
}

// flood sends u on every in-service line of the PSN, in g.Out order, but the
// reverse of arrival (NoLink, for the PSN's own update: every line).
func (p *PSN) flood(g *topology.Graph, e Egress, u *flooding.Update, arrival topology.LinkID, created, now sim.Time) {
	p.fwd = flooding.AppendForwardLinks(p.fwd[:0], g, p.ID, arrival)
	for _, l := range p.fwd {
		if !p.trunk(l).Down() {
			e.Send(l, u, created, now)
		}
	}
}

// resync is the line-up exchange: the PSN sends on its restored line l the
// update its router holds for every other origin (its own rides the
// repair's origination), and the far end's Accept keeps what is newer and
// floods it on. Whatever either side of a healed partition missed crosses
// here, so quiescence means convergence without waiting for the refresh.
func (p *PSN) resync(e Egress, l topology.LinkID, now sim.Time) {
	p.Router.Updates(func(u *flooding.Update) {
		if u.Origin != p.ID {
			e.Send(l, u, now, now)
		}
	})
}

package node

// Rosen's updating protocol (§2.2), written once for both engines: a PSN
// floods an update carrying only its own lines' costs; a PSN that accepts a
// new update forwards it on every line except the one it arrived on; no PSN
// goes more than MaxUpdateInterval without originating; and the two ends of
// a repaired trunk send each other the updates they hold. The engines keep
// what differs between them — how a copy becomes a packet on a queue, what
// they count and trace, and what an accepted update invalidates — and reach
// the protocol through PSN and Egress.

import (
	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// Egress is an engine's side of a flood: whether a line is out of service,
// and how one copy of an update goes onto it.
type Egress interface {
	LinkIsDown(l topology.LinkID) bool
	// Send enqueues one copy of u on line l, stamped with the flood's
	// creation time; a routing packet goes to the head of the queue and is
	// never refused.
	Send(l topology.LinkID, u *flooding.Update, created, now sim.Time)
}

// PSN is one PSN's updating-protocol state: its SPF router (nil in the
// 1969 distance-vector mode, which floods nothing), its update sequence and
// when it last originated. Both engines embed it in their per-node state.
type PSN struct {
	ID     topology.NodeID
	Router *spf.IncrementalRouter
	// LastOriginated is when the PSN last flooded its own update; the
	// engines boot it from BootOriginated.
	LastOriginated sim.Time
	// Originated counts the updates the PSN flooded from t = 0 (and
	// internal/network's 1969 vector exchanges); Meter is its share of the
	// measured window.
	Originated int64
	Meter      Meter

	seq flooding.Sequencer
	fwd []topology.LinkID // Flood's forwarding scratch
}

// NextUpdate makes the PSN's next update: costs are its own lines', in
// g.Out order, and now becomes its origination time.
func (p *PSN) NextUpdate(g *topology.Graph, costs []float64, now sim.Time) *flooding.Update {
	p.LastOriginated = now
	p.Originated++
	return flooding.NewUpdate(p.ID, p.seq.Next(), g.Out(p.ID), costs)
}

// RefreshDue reports whether MaxUpdateInterval has passed since the PSN
// last originated: the reliability refresh.
func (p *PSN) RefreshDue(now sim.Time) bool {
	return now-p.LastOriginated >= MaxUpdateInterval
}

// Flood sends u on every in-service line of the PSN, in g.Out order, but the
// reverse of arrival (NoLink, for the PSN's own update: every line).
func (p *PSN) Flood(g *topology.Graph, e Egress, u *flooding.Update, arrival topology.LinkID, created, now sim.Time) {
	p.fwd = flooding.AppendForwardLinks(p.fwd[:0], g, p.ID, arrival)
	for _, l := range p.fwd {
		if !e.LinkIsDown(l) {
			e.Send(l, u, created, now)
		}
	}
}

// Resync is the line-up exchange: the PSN sends on its restored line l the
// update its router holds for every other origin (its own rides the
// repair's origination), and the far end's Accept keeps what is newer and
// floods it on. Whatever either side of a healed partition missed crosses
// here, so quiescence means convergence without waiting for the refresh.
// Without a router there is no database to send.
func (p *PSN) Resync(e Egress, l topology.LinkID, now sim.Time) {
	if p.Router == nil {
		return
	}
	p.Router.Updates(func(u *flooding.Update) {
		if u.Origin != p.ID {
			e.Send(l, u, now, now)
		}
	})
}

// QuietOrigins counts the origins with no update copy in flight, given the
// copies in flight by origin: those AuditConvergence checks.
func QuietOrigins(inFlight []int) int {
	quiet := 0
	for _, c := range inFlight {
		if c == 0 {
			quiet++
		}
	}
	return quiet
}

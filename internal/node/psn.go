package node

// The routing-protocol seam both engines call: a PSN boots (Boot), ticks
// (FirstTick, Tick), hears a routing packet (Hear), learns that one of its
// lines went down or came back (LineChanged) and names the line to forward a
// packet on (NextLine). Which protocol runs — Rosen's flood with SPF under a
// cost module (flood.go) or the 1969 distance vector (distvec.go) — is
// decided here, at Boot, and nowhere in an engine.

import (
	"fmt"
	"math"

	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Egress is an engine's side of the routing protocol: how one copy of an
// update or a vector goes onto a line, and what the engine keeps of the
// protocol's steps — its counters and the load it models without packets. A
// routing packet goes to the head of the queue and is never refused. The
// protocol's trace events are the PSN's own (PSN.Trace).
type Egress interface {
	// Send enqueues one copy of u on line l, stamped with the flood's
	// creation time.
	Send(l topology.LinkID, u *flooding.Update, created, now sim.Time)
	// SendVector enqueues v on line l.
	SendVector(l topology.LinkID, v *Vector, now sim.Time)
	// Originated tells the engine that p made u, its own update, at now,
	// just before p floods it.
	Originated(p *PSN, u *flooding.Update, now sim.Time)
	// Delay is the delay line l's cost module reads for a measurement
	// period whose packets averaged avg seconds: avg, or avg with load the
	// engine carries without packets folded in.
	Delay(l topology.LinkID, avg float64) float64
}

// PSN is one PSN's routing-protocol state: its lines, and under an SPF
// metric its router, its update sequence, when it last originated and, with
// multipath forwarding, its first-hop choice; or, under BF1969, which floods
// nothing and has no router, its distance vector.
// Beside it are the PSN's traffic source and its share of the measured
// window. Both engines embed it in their per-node state and boot it with
// Boot.
type PSN struct {
	ID     topology.NodeID
	Router *spf.IncrementalRouter
	dv     *distVec
	mp     *paths                       // nil without multipath forwarding
	trunk  func(topology.LinkID) *Trunk // the trunk of each of its lines
	period sim.Time                     // between ticks
	// LastOriginated is when the PSN last flooded its own update; Boot sets
	// it from BootOriginated.
	LastOriginated sim.Time
	// Originated counts the updates the PSN flooded, or the vectors it
	// exchanged, from t = 0; Meter is its share of the measured window.
	Originated int64
	Meter      Meter
	Src        Source
	// Trace, when non-nil, receives the PSN's measurements, originations and
	// reroutes.
	Trace *trace.Log

	seq  flooding.Sequencer
	cseq uint32            // routing packets sent (CtrlSeq)
	fwd  []topology.LinkID // flood's forwarding scratch, and a traced accept's next hops before it
}

// Boot puts psns, the PSNs one goroutine drives, on the routing protocol of
// kind in a network of g's nodes, trunk(l) being link l's trunk:
//   - under an SPF metric, routers of one spf.Table, which it returns, booted
//     from every trunk's advertised cost, with a measurement every period;
//     with multipath, each PSN forwards at random over its tree's
//     near-equal-cost first hops (§4.5), within MultipathToleranceFraction
//     × the smallest floor of any trunk — one tolerance however the PSNs
//     are split among goroutines — drawing on its StreamPaths stream of seed;
//   - under BF1969, distance vectors knowing only their own PSN, exchanged
//     every VectorPeriod;
//   - with route false (a static plane, which forwards by a table of its
//     own), no routing state at all: its PSNs only measure, every period.
//
// Boot ignores multipath under BF1969 or without route, which have no tree
// to split over; callers refuse that combination. It also returns the
// engine's count of update copies in flight (Copies), nil where nothing
// floods.
func Boot(kind MetricKind, route, multipath bool, seed int64, g *topology.Graph, psns []*PSN, trunk func(topology.LinkID) *Trunk, period sim.Time) (*spf.Table, Copies) {
	for _, p := range psns {
		p.trunk, p.period = trunk, period
	}
	switch {
	case !route:
		return nil, nil
	case kind == BF1969:
		for _, p := range psns {
			p.bootVector(g)
		}
		return nil, nil
	}
	initial, floor := make([]float64, g.NumLinks()), math.Inf(1)
	for l := range initial {
		t := trunk(topology.LinkID(l))
		initial[l], floor = t.Advertised(), min(floor, t.Module.Floor())
	}
	roots := make([]topology.NodeID, len(psns))
	for i, p := range psns {
		roots[i] = p.ID
	}
	table := spf.NewTable(g, roots, initial)
	for i, p := range psns {
		p.Router = table.Router(i)
		p.LastOriginated = BootOriginated(p.ID, p.FirstTick(g.NumNodes()), period)
		if multipath {
			p.mp = &paths{g: g, tol: MultipathToleranceFraction * floor, rng: sim.NewRNG(seed, int(p.ID), StreamPaths)}
		}
	}
	return table, make(Copies, g.NumNodes())
}

// FirstTick is the instant of the PSN's first tick in a network of nodes
// PSNs: its first measurement (FirstMeasurement), or under BF1969 its first
// exchange, each staggered by ID across one period.
func (p *PSN) FirstTick(nodes int) sim.Time {
	if p.dv != nil {
		return sim.Time(int64(VectorPeriod)*int64(p.ID)/int64(nodes)) + VectorPeriod
	}
	return FirstMeasurement(p.ID, nodes, p.period)
}

// Tick runs one of the PSN's periodic steps and returns the time to its
// next. Under BF1969 it is a vector exchange. Otherwise the PSN takes every
// line's measurement period and feeds each line in service to its cost
// module; a PSN with a router then floods its costs if a module reported a
// significant change or the 50 s refresh is due.
func (p *PSN) Tick(g *topology.Graph, e Egress, now sim.Time) sim.Time {
	if p.dv != nil {
		p.exchange(g, e, now)
		return p.period
	}
	report := false
	for _, l := range g.Out(p.ID) {
		t := p.trunk(l)
		count := t.Meas.Count()
		avg := t.Meas.Take()
		if t.Down() || t.Module == nil {
			continue
		}
		cost, rep := t.Module.Update(e.Delay(l, avg))
		report = report || rep
		if p.Trace != nil {
			p.Trace.Add(trace.Event{At: now, Kind: trace.Measure, Node: p.ID, Link: l, Count: count, Avg: avg, Cost: cost})
		}
	}
	if p.Router != nil && (report || p.refreshDue(now)) {
		p.originate(g, e, now)
	}
	return p.period
}

// Hear takes one routing packet that arrived at the PSN: a vector is kept
// for the next exchange; an update copy new to the router is flooded on.
func (p *PSN) Hear(g *topology.Graph, e Egress, pkt *Packet, now sim.Time) {
	if pkt.Vector != nil {
		p.hearVector(g, pkt.Vector, pkt.Arrival)
		return
	}
	if p.accept(pkt.Update, now) {
		p.flood(g, e, pkt.Update, pkt.Arrival, pkt.Created, now)
	}
}

// accept offers u to the PSN's router, its own duplicate filter, and
// reports whether it was new. A new one makes the multipath first hops
// stale, and a traced PSN records a reroute when it moved the PSN's next hop
// toward any of its source's destinations.
func (p *PSN) accept(u *flooding.Update, now sim.Time) bool {
	tree := p.Router.Tree() // repaired in place: read the next hops before Accept
	if p.Trace != nil {
		p.fwd = p.fwd[:0]
		for _, d := range p.Src.Dests() {
			p.fwd = append(p.fwd, tree.NextHop(d))
		}
	}
	if !p.Router.Accept(u) {
		return false
	}
	if p.mp != nil {
		p.mp.dag = nil
	}
	if p.Trace == nil {
		return true
	}
	changed := int64(0)
	for i, d := range p.Src.Dests() {
		if tree.NextHop(d) != p.fwd[i] {
			changed++
		}
	}
	if changed > 0 {
		p.Trace.Add(trace.Event{At: now, Kind: trace.Reroute, Node: p.ID, Link: topology.NoLink,
			Pkt: uint64(u.Origin)<<32 | u.Seq&0xffffffff, Count: changed})
	}
	return true
}

// ctrlSeqBit marks a Packet.Seq as a routing packet's: bit 63 set, then the
// sending PSN's ID and its count of routing packets sent (CtrlSeq). A user
// packet's Seq is its source PSN's ID and count of packets emitted
// (Source.Emit), bit 63 clear, so the two never collide and a drop's trace
// event names its class.
const ctrlSeqBit = uint64(1) << 63

// CtrlSeq numbers the next routing packet the PSN sends: its Packet.Seq.
func (p *PSN) CtrlSeq() uint64 {
	if p.cseq == math.MaxUint32 {
		panic(fmt.Sprintf("node: node %d used all 2^32 control sequence numbers; the next would carry into the origin field of Packet.Seq", p.ID))
	}
	p.cseq++
	return ctrlSeqBit | uint64(p.ID)<<32 | uint64(p.cseq)
}

// LineChanged is the PSN's part in its line l going down or coming back: a
// PSN with a router floods its costs and, over a restored line, resyncs the
// far end (resync). A distance vector hears of it at its next exchange.
func (p *PSN) LineChanged(g *topology.Graph, e Egress, l topology.LinkID, now sim.Time) {
	if p.Router == nil {
		return
	}
	p.originate(g, e, now)
	if !p.trunk(l).Down() {
		p.resync(e, l, now)
	}
}

// NextLine is the line, an index into Graph.Out, on which the PSN forwards
// a packet for dst — its distance vector's choice under BF1969, with
// multipath one of its near-equal-cost first hops, else its SPF tree's — or
// -1 for none.
func (p *PSN) NextLine(dst topology.NodeID) int {
	switch {
	case p.dv != nil:
		return int(p.dv.next[dst])
	case p.mp != nil:
		return p.mp.nextLine(p.Router, dst)
	}
	return p.Router.Tree().NextLine(dst)
}

// paths is a PSN's §4.5 forwarding state: the first hops of the
// near-equal-cost DAG over its router's tree, within tol of the cheapest
// path, and the stream it draws one of several by.
type paths struct {
	g   *topology.Graph
	tol float64  // MultipathToleranceFraction × the smallest link floor Boot saw
	rng sim.RNG  // StreamPaths
	dag *spf.DAG // nil: stale, built at the next lookup
}

// nextLine picks, uniformly at random, the line of one first hop toward dst
// over r's tree, or -1 for none.
func (m *paths) nextLine(r *spf.IncrementalRouter, dst topology.NodeID) int {
	if m.dag == nil {
		m.dag = spf.ComputeDAG(r.Tree(), r.Cost, m.tol)
	}
	switch hops := m.dag.NextHops(dst); len(hops) {
	case 0:
		return -1
	case 1:
		return m.g.OutLine(hops[0])
	default:
		return m.g.OutLine(hops[m.rng.Intn(len(hops))])
	}
}

// Copies counts, by origin, the update copies in an engine's custody: queued,
// on a transmitter or propagating. The convergence audit checks an origin
// only while its count is zero. It is nil where nothing floods.
type Copies []int

// Add books one copy of u into custody.
func (c Copies) Add(u *flooding.Update) { c[u.Origin]++ }

// Remove books routing packet p out of custody, consumed or destroyed; a
// vector is no update copy and books nothing.
func (c Copies) Remove(p *Packet) {
	if p.Update != nil {
		c[p.Update.Origin]--
	}
}

// Quiet counts the origins with no update copy in flight: those
// AuditConvergence checks (none where nothing floods).
func (c Copies) Quiet() int {
	quiet := 0
	for _, n := range c {
		if n == 0 {
			quiet++
		}
	}
	return quiet
}

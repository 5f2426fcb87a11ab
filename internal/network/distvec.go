package network

// Packet-level 1969 routing (§2.1): instead of flooding link costs and
// running SPF, each PSN keeps a Bellman-Ford distance vector, exchanges it
// with its neighbors every 2/3 second as real packets, and prices each of
// its own lines at the *instantaneous* output-queue length plus a
// constant. This is the baseline the paper says D-SPF was "far superior"
// to: the volatile metric and the slow vector propagation produce
// transient loops and sluggish failure response, which the TTL counter
// (LoopDrops) makes measurable.

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// dvExchangePeriod is the 1969 table-exchange interval ("every 2/3
// seconds").
const dvExchangePeriod = 2 * sim.Second / 3

// dvEntryBits is the wire size of one distance-vector entry (destination +
// 16-bit distance).
const dvEntryBits = 24

// dvState is one PSN's distance-vector routing state.
type dvState struct {
	dist []float64         // own estimated distance per destination
	next []topology.LinkID // chosen outgoing link per destination
	nbr  [][]float64       // by out-line: the last vector heard over it, nil until one is
}

// newDVState initializes the vector of a node with the given number of
// out-lines, knowing only the node itself.
func newDVState(self topology.NodeID, n, lines int) *dvState {
	s := &dvState{
		dist: make([]float64, n),
		next: make([]topology.LinkID, n),
		nbr:  make([][]float64, lines),
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.next[i] = topology.NoLink
	}
	s.dist[self] = 0
	return s
}

// recompute runs the Bellman-Ford relaxation over the stored neighbor
// vectors with the current instantaneous line costs.
func (n *Network) dvRecompute(p *psn) {
	s := p.dv
	self := p.ID
	for d := range s.dist {
		if topology.NodeID(d) == self {
			continue
		}
		best := math.Inf(1)
		bestLink := topology.NoLink
		for i, lid := range n.g.Out(self) {
			v := s.nbr[i]
			if v == nil || n.links[lid].Down() {
				continue
			}
			// §2.1: "the link metric... was simply the instantaneous queue
			// length at the moment of updating plus a fixed constant."
			c := float64(n.links[lid].Queue.Len()) + metric.QueueLengthConstant
			if est := c + v[d]; est < best {
				best = est
				bestLink = lid
			}
		}
		s.dist[d] = best
		s.next[d] = bestLink
	}
}

// dvExchange sends the node's current vector to every neighbor as a
// high-priority packet and recomputes from what it has heard.
func (n *Network) dvExchange(p *psn, now sim.Time) {
	n.dvRecompute(p)
	p.Originated++
	vec := &node.Vector{Origin: p.ID, Dist: append([]float64(nil), p.dv.dist...)}
	size := float64(128 + dvEntryBits*len(vec.Dist))
	for _, l := range n.g.Out(p.ID) {
		if n.links[l].Down() {
			continue
		}
		pkt := n.pool.Get()
		pkt.SizeBits, pkt.Created = size, now
		pkt.Vector, pkt.Arrival = vec, l
		n.enqueue(n.links[l], pkt, now)
	}
	// Fire-and-forget: the exchange chain re-arms itself forever; nothing
	// ever cancels a vector exchange.
	_ = n.kernel.ScheduleCall(dvExchangePeriod, n.dvExchangeFn, p)
}

// dvReceive stores a neighbor's vector; the next exchange recomputes.
func (n *Network) dvReceive(p *psn, pkt *node.Packet) {
	// The vector arrived over some incoming link; associate it with the
	// corresponding outgoing line (its reverse).
	out := n.g.Link(pkt.Arrival).Reverse()
	rev := n.g.Link(out)
	if rev.From != p.ID {
		panic(fmt.Sprintf("network: vector mis-associated at node %d", p.ID))
	}
	p.dv.nbr[n.g.OutLine(out)] = pkt.Vector.Dist
}

// dvSetup converts the network's PSNs to 1969 distance-vector routing and
// schedules the staggered exchange timers. Called from New when
// Config.Metric is node.BF1969.
func (n *Network) dvSetup() {
	for i, p := range n.psns {
		p.dv = newDVState(p.ID, n.g.NumNodes(), len(n.g.Out(p.ID)))
		offset := sim.Time(int64(dvExchangePeriod) * int64(i) / int64(len(n.psns)))
		// Fire-and-forget: see dvExchange — the chain is never cancelled.
		_ = n.kernel.ScheduleCall(offset+dvExchangePeriod, n.dvExchangeFn, p)
	}
}

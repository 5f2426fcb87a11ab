package node

// The 1969 routing protocol (§2.1), written once for both engines: instead
// of flooding link costs and running SPF, each PSN keeps a Bellman-Ford
// distance vector, exchanges it with its neighbours every 2/3 second as real
// packets, and prices each of its own lines at the *instantaneous*
// output-queue length plus a constant. This is the baseline the paper says
// D-SPF was "far superior" to: the volatile metric and the slow vector
// propagation produce transient loops and sluggish failure response, which
// the TTL counter (LoopDrops) makes measurable. The engines turn each vector
// into packets (Egress.SendVector); the PSN reaches the protocol through its
// seam (psn.go): Boot, Tick, Hear and NextLine.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// VectorPeriod is the 1969 table-exchange interval ("every 2/3 seconds").
const VectorPeriod = 2 * sim.Second / 3

// Vector is a 1969 distance-vector table as exchanged between neighbours,
// the sender's distance to every node: one per exchange, shared by every
// copy and every PSN that hears it, and never written after exchange makes
// it. A PSN knows the sender by the line it heard it on.
type Vector struct{ Dist []float64 }

// SizeBits is the vector's wire size: a 128-bit header and a 24-bit entry
// (destination + 16-bit distance) per node.
func (v *Vector) SizeBits() float64 { return float64(128 + 24*len(v.Dist)) }

// distVec is one PSN's distance-vector state.
type distVec struct {
	lines []*Trunk    // the PSN's out-lines, in Graph.Out order
	dist  []float64   // estimated distance per destination
	next  []int16     // chosen line per destination, -1 for none
	nbr   [][]float64 // by line: the last vector heard over it, nil until one is
	price []float64   // by line: its price at the current exchange
}

// bootVector puts the PSN on 1969 routing, knowing only itself, in a network
// of g's nodes, its exchanges every VectorPeriod.
func (p *PSN) bootVector(g *topology.Graph) {
	nodes, deg := g.NumNodes(), g.Degree(p.ID)
	p.period = VectorPeriod
	p.dv = &distVec{dist: make([]float64, nodes), next: make([]int16, nodes),
		nbr: make([][]float64, deg), price: make([]float64, deg)}
	for _, l := range g.Out(p.ID) {
		p.dv.lines = append(p.dv.lines, p.trunk(l))
	}
	for d := range nodes {
		p.dv.dist[d], p.dv.next[d] = math.Inf(1), -1
	}
	p.dv.dist[p.ID] = 0
}

// exchange is one table exchange: the PSN runs the Bellman-Ford relaxation
// over the vectors it has heard with its lines' current prices, then sends
// the result, one Vector, on every in-service line in Graph.Out order.
func (p *PSN) exchange(g *topology.Graph, e Egress, now sim.Time) {
	v := p.dv
	for i, t := range v.lines {
		v.price[i] = t.Advertised()
	}
	for d := range v.dist {
		if topology.NodeID(d) == p.ID {
			continue
		}
		best, line := math.Inf(1), -1
		for i, t := range v.lines {
			heard := v.nbr[i]
			if heard == nil || t.Down() {
				continue
			}
			if est := v.price[i] + heard[d]; est < best {
				best, line = est, i
			}
		}
		v.dist[d], v.next[d] = best, int16(line)
	}
	p.Originated++
	vec := &Vector{Dist: slices.Clone(v.dist)}
	for i, l := range g.Out(p.ID) {
		if !v.lines[i].Down() {
			e.SendVector(l, vec, now)
		}
	}
}

// hearVector keeps vec, which arrived over link arrival, as the vector heard
// on the PSN's line back over that link; the next exchange relaxes over it.
func (p *PSN) hearVector(g *topology.Graph, vec *Vector, arrival topology.LinkID) {
	back := g.Link(arrival).Reverse()
	if g.Link(back).From != p.ID {
		panic(fmt.Sprintf("node: a vector over link %d heard at node %d", arrival, p.ID))
	}
	p.dv.nbr[g.OutLine(back)] = vec.Dist
}

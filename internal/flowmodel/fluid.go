package flowmodel

import (
	"math"

	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// deadCost is the cost a Reassign charges for a link its down predicate
// reports out of service — the same sentinel internal/network floods for a
// dead trunk (DownCost). It is finite so SPF arithmetic stays well-defined,
// and any path reaching it is treated as unroutable: alive paths on the
// topologies this model runs cost orders of magnitude less.
const deadCost = 1e9

// Fluid is the time-varying, epoch-based fluid layer of the hybrid engine:
// a background traffic matrix routed as fluid flows over the SPF trees of
// the *currently advertised* link costs. The owner (internal/network) calls
// Reassign once per epoch, so the background load follows the metric's
// rerouting decisions without a single background packet being scheduled.
// Between epochs the per-link rates are frozen; Scale takes effect
// immediately (a surge raises the load on the current routes, and the
// routes adapt at the next epoch — exactly the lag a packet surge shows on
// the measurement loop).
//
// Not safe for concurrent use.
type Fluid struct {
	g     *topology.Graph
	m     *traffic.Matrix
	scale float64

	ws      spf.Workspace
	costBuf []float64 // penalized per-link costs for the current Reassign

	linkBPS []float64
}

// NewFluid returns a fluid layer for the background matrix m over g. All
// per-link rates are zero until the first Reassign.
func NewFluid(g *topology.Graph, m *traffic.Matrix) *Fluid {
	if m.NumNodes() != g.NumNodes() {
		panic("flowmodel: matrix size mismatch")
	}
	return &Fluid{
		g:       g,
		m:       m,
		scale:   1,
		costBuf: make([]float64, g.NumLinks()),
		linkBPS: make([]float64, g.NumLinks()),
	}
}

// Reassign re-routes the whole background matrix over SPF under the given
// advertised costs, with links the down predicate reports out of service
// priced at deadCost (demand that can only reach its destination through a
// dead link loads no link this epoch). cost must return positive,
// finite values for every link; down may be nil when nothing is out of
// service. Allocation-free after the first call.
func (f *Fluid) Reassign(cost spf.CostFunc, down func(topology.LinkID) bool) {
	for i := range f.costBuf {
		l := topology.LinkID(i)
		if down != nil && down(l) {
			f.costBuf[i] = deadCost
		} else {
			f.costBuf[i] = cost(l)
		}
	}
	for i := range f.linkBPS {
		f.linkBPS[i] = 0
	}
	assignInto(&f.ws, f.linkBPS, f.g, f.m, f.scale,
		func(l topology.LinkID) float64 { return f.costBuf[l] }, deadCost)
}

// Scale multiplies the background demand by factor, effective immediately
// on the current routes: per-link rates jump now, rerouting happens at the
// next Reassign. The scenario engine's background surge.
func (f *Fluid) Scale(factor float64) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic("flowmodel: fluid scale factor must be positive and finite")
	}
	f.scale *= factor
	for i := range f.linkBPS {
		f.linkBPS[i] *= factor
	}
}

// LinkBPS returns the background rate currently assigned to the link in
// bits/second.
func (f *Fluid) LinkBPS(l topology.LinkID) float64 { return f.linkBPS[l] }

package node

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// Exchange relaxes over the vectors heard with each line's queue length plus
// the constant, skipping lines unheard or down, and sends one Vector, never
// written again, on every in-service line in Graph.Out order; Hear keeps a
// vector under the line back over its arrival link, and refuses any other.
func TestExchangeRelaxesOverHeardVectors(t *testing.T) {
	g, h, toA, toB, toC := hub()
	trunks := make([]Trunk, g.NumLinks())
	for l := range trunks {
		trunks[l] = NewTrunk(DefaultQueueLimit, NewCostModule(BF1969, topology.T56, 0), topology.T56.Bandwidth())
	}
	p := PSN{ID: h}
	p.BootVector(g, func(l topology.LinkID) *Trunk { return &trunks[l] })
	p.Hear(g, &Vector{Dist: []float64{4, 0, 4, 12}}, g.Link(toA).Reverse())
	p.Hear(g, &Vector{Dist: []float64{4, 4, 0, 12}}, g.Link(toB).Reverse())
	for range 2 { // toA's queue: 2 + 4 a hop
		trunks[toA].Queue.Push(&Packet{SizeBits: 600})
	}
	e := &recorder{}
	p.Exchange(g, e, 7)
	first := e.vectors[0].v
	if want := []float64{0, 6, 4, 16}; !slices.Equal(first.Dist, want) {
		t.Errorf("distances %v, want %v", first.Dist, want)
	}
	var lines []topology.LinkID
	for _, s := range e.vectors {
		if s.v != first || s.when != 7 {
			t.Errorf("sent %+v, want the one vector at 7", s)
		}
		lines = append(lines, s.link)
	}
	if want := []topology.LinkID{toA, toB, toC}; !slices.Equal(lines, want) || p.Originated != 1 {
		t.Errorf("sent on %v with %d originated, want %v and 1", lines, p.Originated, want)
	}
	for dst, want := range []int{-1, 0, 1, 1} {
		if got := p.NextLine(topology.NodeID(dst)); got != want {
			t.Errorf("next line to %d: %d, want %d", dst, got, want)
		}
	}

	trunks[toB].Fail(func(*Packet) {})
	e.vectors = nil
	p.Exchange(g, e, 8)
	if got, want := e.vectors[0].v.Dist, []float64{0, 6, 10, 18}; !slices.Equal(got, want) {
		t.Errorf("with toB down: distances %v, want %v", got, want)
	}
	if len(e.vectors) != 2 || e.vectors[1].link != toC {
		t.Errorf("with toB down: sent %+v, want toA and toC", e.vectors)
	}
	if !slices.Equal(first.Dist, []float64{0, 6, 4, 16}) {
		t.Errorf("the first vector changed to %v", first.Dist)
	}

	defer func() {
		if recover() == nil {
			t.Error("a vector over H's own out-link was heard")
		}
	}()
	p.Hear(g, first, toA)
}

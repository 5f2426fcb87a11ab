package node

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// A tick under BF1969 is an exchange: it relaxes over the vectors heard with
// each line's queue length plus the constant, skipping lines unheard or down,
// and sends one Vector, never written again, on every in-service line in
// Graph.Out order. Hear keeps a vector under the line back over its arrival
// link, and refuses any other.
func TestExchangeRelaxesOverHeardVectors(t *testing.T) {
	g, h, toA, toB, toC := hub()
	trunks, trunk := trunks(g, BF1969)
	p := PSN{ID: h}
	if tab, copies := Boot(BF1969, true, false, 0, g, []*PSN{&p}, trunk, MeasurementPeriod); tab != nil || copies != nil {
		t.Errorf("BF1969 booted a table %v and copies %v", tab, copies)
	}
	if p.FirstTick(g.NumNodes()) != VectorPeriod {
		t.Errorf("node 0's first exchange at %v, want %v", p.FirstTick(g.NumNodes()), VectorPeriod)
	}
	e := &recorder{}
	p.Hear(g, e, &Packet{Vector: &Vector{Dist: []float64{4, 0, 4, 12}}, Arrival: g.Link(toA).Reverse()}, 5)
	p.Hear(g, e, &Packet{Vector: &Vector{Dist: []float64{4, 4, 0, 12}}, Arrival: g.Link(toB).Reverse()}, 6)
	for range 2 { // toA's queue: 2 + 4 a hop
		trunks[toA].Queue.Push(&Packet{SizeBits: 600})
	}
	if next := p.Tick(g, e, 7); next != VectorPeriod {
		t.Errorf("next exchange in %v, want %v", next, VectorPeriod)
	}
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
	p.Tick(g, e, 8)
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
	p.Hear(g, e, &Packet{Vector: first, Arrival: toA}, 9)
}

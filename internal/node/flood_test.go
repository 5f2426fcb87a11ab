package node

import (
	"slices"
	"testing"

	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// sent is one copy an Egress was asked to send.
type sent struct {
	link          topology.LinkID
	u             *flooding.Update
	created, when sim.Time
}

// sentVector is one vector an Egress was asked to send.
type sentVector struct {
	link topology.LinkID
	v    *Vector
	when sim.Time
}

// recorder is an Egress that records every copy and vector, with a set of
// down lines.
type recorder struct {
	down    map[topology.LinkID]bool
	sent    []sent
	vectors []sentVector
}

func (r *recorder) LinkIsDown(l topology.LinkID) bool { return r.down[l] }

func (r *recorder) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	r.sent = append(r.sent, sent{l, u, created, now})
}

func (r *recorder) SendVector(l topology.LinkID, v *Vector, now sim.Time) {
	r.vectors = append(r.vectors, sentVector{l, v, now})
}

// hub builds H joined to A, B and C, with A and B also joined: H's lines in
// Graph.Out order lead to A, B and C.
func hub() (g *topology.Graph, h topology.NodeID, toA, toB, toC topology.LinkID) {
	g = topology.New()
	h = g.AddNode("H")
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	toA, _ = g.AddTrunk(h, a, topology.T56)
	toB, _ = g.AddTrunk(h, b, topology.T56)
	toC, _ = g.AddTrunk(h, c, topology.T56)
	g.AddTrunk(a, b, topology.T56)
	return g, h, toA, toB, toC
}

// ones returns n unit costs.
func ones(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

// Flood sends one copy on every in-service line in Graph.Out order, skipping
// the reverse of the arrival line and every down line, each stamped with the
// creation time it was given.
func TestFloodSkipsArrivalAndDownLines(t *testing.T) {
	g, h, toA, toB, toC := hub()
	fromA := g.Link(toA).Reverse()
	p := PSN{ID: h}
	u := p.NextUpdate(g, ones(g.Degree(h)), sim.Second)
	for _, tc := range []struct {
		name    string
		arrival topology.LinkID
		down    []topology.LinkID
		want    []topology.LinkID
	}{
		{"own update", topology.NoLink, nil, []topology.LinkID{toA, toB, toC}},
		{"arrived from A", fromA, nil, []topology.LinkID{toB, toC}},
		{"own update, line to B down", topology.NoLink, []topology.LinkID{toB}, []topology.LinkID{toA, toC}},
		{"arrived from A, line to C down", fromA, []topology.LinkID{toC}, []topology.LinkID{toB}},
		{"arrived from A, every other line down", fromA, []topology.LinkID{toB, toC}, nil},
	} {
		e := &recorder{down: map[topology.LinkID]bool{}}
		for _, l := range tc.down {
			e.down[l] = true
		}
		p.Flood(g, e, u, tc.arrival, 3*sim.Second, 5*sim.Second)
		var got []topology.LinkID
		for _, s := range e.sent {
			got = append(got, s.link)
			if s.u != u || s.created != 3*sim.Second || s.when != 5*sim.Second {
				t.Errorf("%s: sent %+v, want update %p created at 3s, sent at 5s", tc.name, s, u)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: sent on %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Resync sends, on the one restored line, the update the router holds for
// every origin but the PSN itself, each once, created now; without a router
// it sends nothing.
func TestResyncSendsEveryOtherOrigin(t *testing.T) {
	g, h, _, toB, _ := hub()
	roots := []topology.NodeID{0, 1, 2, 3}
	tab := spf.NewTable(g, roots, ones(g.NumLinks()))
	psns := make([]PSN, g.NumNodes())
	var updates []*flooding.Update
	for i := range psns {
		psns[i] = PSN{ID: topology.NodeID(i), Router: tab.Router(i)}
		updates = append(updates, psns[i].NextUpdate(g, ones(g.Degree(psns[i].ID)), sim.Second))
	}
	p := &psns[h]
	for _, u := range updates {
		p.Router.Accept(u)
	}
	e := &recorder{}
	p.Resync(e, toB, 7*sim.Second)
	var origins []topology.NodeID
	for _, s := range e.sent {
		if s.link != toB || s.created != 7*sim.Second || s.when != 7*sim.Second || s.u != updates[s.u.Origin] {
			t.Errorf("resync sent %+v, want the held update on line %d, created and sent at 7s", s, toB)
		}
		origins = append(origins, s.u.Origin)
	}
	if want := []topology.NodeID{1, 2, 3}; !slices.Equal(origins, want) {
		t.Errorf("resync sent the updates of origins %v, want %v (every origin but H, once)", origins, want)
	}
	e = &recorder{}
	(&PSN{ID: h}).Resync(e, toB, 7*sim.Second)
	if len(e.sent) != 0 {
		t.Errorf("a PSN without a router resynced %d updates", len(e.sent))
	}
}

// NextUpdate numbers a PSN's updates 1, 2, …, lists its own lines and marks
// the origination; RefreshDue fires exactly MaxUpdateInterval after it.
func TestNextUpdateAndRefresh(t *testing.T) {
	g, h, _, _, _ := hub()
	p := PSN{ID: h}
	costs := []float64{1, 2, 3}
	for seq := uint64(1); seq <= 3; seq++ {
		now := sim.Time(seq) * sim.Second
		u := p.NextUpdate(g, costs, now)
		if u.Origin != h || u.Seq != seq || !slices.Equal(u.Links, g.Out(h)) || !slices.Equal(u.Costs, costs) {
			t.Fatalf("update %d = %+v, want origin H, sequence %d, H's lines at %v", seq, u, seq, costs)
		}
		if p.LastOriginated != now {
			t.Fatalf("update %d: LastOriginated = %v, want %v", seq, p.LastOriginated, now)
		}
	}
	last := p.LastOriginated
	if p.RefreshDue(last + MaxUpdateInterval - 1) {
		t.Errorf("refresh due one tick before %v after the last origination", MaxUpdateInterval)
	}
	if !p.RefreshDue(last + MaxUpdateInterval) {
		t.Errorf("refresh not due %v after the last origination", MaxUpdateInterval)
	}
}

func TestQuietOrigins(t *testing.T) {
	if got := QuietOrigins([]int{0, 2, 0, 1, 0}); got != 3 {
		t.Errorf("QuietOrigins = %d, want 3", got)
	}
}

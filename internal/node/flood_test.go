package node

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/flooding"
	"repro/internal/sim"
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

// recorder is an Egress that records every copy, vector and origination,
// and feeds each measurement to its module unchanged.
type recorder struct {
	sent       []sent
	vectors    []sentVector
	originated []*flooding.Update
}

func (r *recorder) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	r.sent = append(r.sent, sent{l, u, created, now})
}

func (r *recorder) SendVector(l topology.LinkID, v *Vector, now sim.Time) {
	r.vectors = append(r.vectors, sentVector{l, v, now})
}

func (r *recorder) Originated(_ *PSN, u *flooding.Update, _ sim.Time) {
	r.originated = append(r.originated, u)
}

func (r *recorder) Delay(_ topology.LinkID, avg float64) float64 { return avg }

// trunks returns one trunk for each of g's links, each with kind's cost
// module, and the function Boot reads them by.
func trunks(g *topology.Graph, kind MetricKind) ([]Trunk, func(topology.LinkID) *Trunk) {
	ts := make([]Trunk, g.NumLinks())
	for _, l := range g.Links() {
		ts[l.ID] = NewTrunk(DefaultQueueLimit, NewCostModule(kind, l.Type, l.PropDelay), l.Type.Bandwidth())
	}
	return ts, func(l topology.LinkID) *Trunk { return &ts[l] }
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
	u := p.nextUpdate(g, ones(g.Degree(h)), sim.Second)
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
		ts, trunk := trunks(g, MinHop)
		Boot(MinHop, false, false, 0, g, []*PSN{&p}, trunk, MeasurementPeriod)
		for _, l := range tc.down {
			ts[l].Fail(func(*Packet) {})
		}
		e := &recorder{}
		p.flood(g, e, u, tc.arrival, 3*sim.Second, 5*sim.Second)
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

// A restored line makes a flooding PSN originate, its own update first on
// every line, then resync: send on that line the update its router holds
// for every origin but itself, each once, created now (node.PSN.LineChanged).
// A line gone down makes it originate only; a PSN without a router does
// neither.
func TestResyncSendsEveryOtherOrigin(t *testing.T) {
	g, h, _, toB, _ := hub()
	ts, trunk := trunks(g, MinHop)
	psns := make([]*PSN, g.NumNodes())
	for i := range psns {
		psns[i] = &PSN{ID: topology.NodeID(i)}
	}
	Boot(MinHop, true, false, 0, g, psns, trunk, MeasurementPeriod)
	var updates []*flooding.Update
	for _, q := range psns {
		updates = append(updates, q.nextUpdate(g, ones(g.Degree(q.ID)), sim.Second))
	}
	p := psns[h]
	for _, u := range updates {
		p.Router.Accept(u)
	}

	e := &recorder{}
	ts[toB].Fail(func(*Packet) {})
	p.LineChanged(g, e, toB, 6*sim.Second)
	if own := e.originated; len(own) != 1 || own[0].Costs[g.OutLine(toB)] != DownCost || len(e.sent) != g.Degree(h)-1 {
		t.Errorf("line down: originated %v and sent %d copies, want one update pricing the line at DownCost on the %d others",
			own, len(e.sent), g.Degree(h)-1)
	}

	e = &recorder{}
	ts[toB].Restore()
	p.LineChanged(g, e, toB, 7*sim.Second)
	if len(e.originated) != 1 || len(e.sent) < g.Degree(h) {
		t.Fatalf("line up: originated %d updates and sent %d copies, want one on every line first", len(e.originated), len(e.sent))
	}
	var origins []topology.NodeID
	for _, s := range e.sent[g.Degree(h):] {
		if s.link != toB || s.created != 7*sim.Second || s.when != 7*sim.Second || s.u != updates[s.u.Origin] {
			t.Errorf("resync sent %+v, want the held update on line %d, created and sent at 7s", s, toB)
		}
		origins = append(origins, s.u.Origin)
	}
	if want := []topology.NodeID{1, 2, 3}; !slices.Equal(origins, want) {
		t.Errorf("resync sent the updates of origins %v, want %v (every origin but H, once)", origins, want)
	}

	e = &recorder{}
	q := &PSN{ID: h}
	Boot(MinHop, false, false, 0, g, []*PSN{q}, trunk, MeasurementPeriod)
	q.LineChanged(g, e, toB, 7*sim.Second)
	if len(e.sent) != 0 || len(e.originated) != 0 {
		t.Errorf("a PSN without a router sent %d copies", len(e.sent))
	}
}

// nextUpdate numbers a PSN's updates 1, 2, …, lists its own lines and marks
// the origination; refreshDue fires exactly MaxUpdateInterval after it.
func TestNextUpdateAndRefresh(t *testing.T) {
	g, h, _, _, _ := hub()
	p := PSN{ID: h}
	costs := []float64{1, 2, 3}
	for seq := uint64(1); seq <= 3; seq++ {
		now := sim.Time(seq) * sim.Second
		u := p.nextUpdate(g, costs, now)
		if u.Origin != h || u.Seq != seq || !slices.Equal(u.Links, g.Out(h)) || !slices.Equal(u.Costs, costs) {
			t.Fatalf("update %d = %+v, want origin H, sequence %d, H's lines at %v", seq, u, seq, costs)
		}
		if p.LastOriginated != now {
			t.Fatalf("update %d: LastOriginated = %v, want %v", seq, p.LastOriginated, now)
		}
	}
	last := p.LastOriginated
	if p.refreshDue(last + MaxUpdateInterval - 1) {
		t.Errorf("refresh due one tick before %v after the last origination", MaxUpdateInterval)
	}
	if !p.refreshDue(last + MaxUpdateInterval) {
		t.Errorf("refresh not due %v after the last origination", MaxUpdateInterval)
	}
}

func TestQuietOrigins(t *testing.T) {
	if got := (Copies{0, 2, 0, 1, 0}).Quiet(); got != 3 {
		t.Errorf("Quiet = %d, want 3", got)
	}
}

// A routing packet's Seq is ctrlSeqBit | its PSN's ID<<32 | the routing
// packets the PSN sent, this one included. The last count that fits must
// pack with the ID intact, and the one after it must panic instead of
// carrying into the ID.
func TestCtrlSeqExhaustionPanics(t *testing.T) {
	p := PSN{ID: 5, cseq: math.MaxUint32 - 1}
	if got, want := p.CtrlSeq(), ctrlSeqBit|5<<32|math.MaxUint32; got != want {
		t.Fatalf("last in-range routing packet: Seq %#x, want %#x", got, want)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "control sequence") || !strings.Contains(msg, "node 5") {
			t.Fatalf("routing packet past the limit: recovered %q, want the named control-sequence panic", msg)
		}
	}()
	p.CtrlSeq()
	t.Fatal("CtrlSeq returned: the count passed 2^32 unnoticed")
}

// With multipath a PSN draws its next line uniformly among the first hops
// within the tolerance of the cheapest path, on its own StreamPaths stream;
// an update it accepts drops the first hops it drew from, so the next lookup
// reads the new costs.
func TestMultipathNextLine(t *testing.T) {
	g := topology.Grid(2, 2, topology.T56)
	src, via, dst := g.MustLookup("R0.C0"), g.MustLookup("R0.C1"), g.MustLookup("R1.C1")
	_, trunk := trunks(g, MinHop)
	psns := make([]*PSN, g.NumNodes())
	for i := range psns {
		psns[i] = &PSN{ID: topology.NodeID(i)}
	}
	const seed = 7
	Boot(MinHop, true, true, seed, g, psns, trunk, MeasurementPeriod)
	p := psns[src]
	ref := sim.NewRNG(seed, int(src), StreamPaths)
	for i := range 64 {
		if got, want := p.NextLine(dst), ref.Intn(2); got != want {
			t.Fatalf("draw %d: line %d, want %d: two equal 2-hop paths, drawn on StreamPaths", i, got, want)
		}
	}
	// R0.C1 prices its line to R1.C1 at 5: the path through it costs 6
	// against 2, far outside the tolerance.
	costs := ones(g.Degree(via))
	costs[g.OutLine(mustFind(t, g, via, dst))] = 5
	u := psns[via].nextUpdate(g, costs, sim.Second)
	p.Hear(g, &recorder{}, &Packet{Update: u, Arrival: mustFind(t, g, via, src)}, 2*sim.Second)
	want := g.OutLine(mustFind(t, g, src, g.MustLookup("R1.C0")))
	for i := range 16 {
		if got := p.NextLine(dst); got != want {
			t.Fatalf("after the update, lookup %d: line %d, want %d, the one cheap first hop", i, got, want)
		}
	}
}

// The multipath tolerance is a network's, not a goroutine's: Boot takes it
// from the smallest floor over every trunk it sees, so a PSN booted alone
// on a shard whose lines are all satellites still reads the terrestrial
// floor.
func TestMultipathToleranceSpansTheNetwork(t *testing.T) {
	g := topology.New()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.AddTrunk(a, b, topology.T56)
	sat, _ := g.AddTrunk(b, c, topology.S56)
	_, trunk := trunks(g, HNSPF)
	p := &PSN{ID: c}
	Boot(HNSPF, true, true, 1, g, []*PSN{p}, trunk, MeasurementPeriod)
	floor := NewCostModule(HNSPF, topology.T56, topology.T56.DefaultPropDelay()).Floor()
	if own := trunk(g.Link(sat).Reverse()).Module.Floor(); own <= floor {
		t.Fatalf("the satellite floor %v is not above the terrestrial %v: the test shows nothing", own, floor)
	}
	if got, want := p.mp.tol, MultipathToleranceFraction*floor; got != want {
		t.Errorf("tolerance %v, want %v × the terrestrial floor %v", got, MultipathToleranceFraction, floor)
	}
}

// mustFind is the link from a to b.
func mustFind(t *testing.T, g *topology.Graph, a, b topology.NodeID) topology.LinkID {
	t.Helper()
	l, ok := g.FindTrunk(a, b)
	if !ok {
		t.Fatalf("no trunk from %d to %d", a, b)
	}
	return l
}

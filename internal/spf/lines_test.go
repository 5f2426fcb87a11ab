package spf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// checkLines walks a router's tree through its public, link-ID face and
// returns the first entry the line-number encoding got wrong: a parent that
// does not enter its node or is not tight, a next hop that does not leave the
// root or is not the line NextLine names, a path that does not start on the
// next hop, run link to link and end at its destination.
func checkLines(r *IncrementalRouter) error {
	g, t, root := r.tab.g, r.Tree(), r.root
	for d := 0; d < g.NumNodes(); d++ {
		dst := topology.NodeID(d)
		// The stored numbers first: out of range, the accessors below would index past a line list.
		if pl, nl := t.parent[d], t.nextHop[d]; (pl != noLine && int(pl) >= len(g.In(dst))) || (nl != noLine && int(nl) >= len(g.Out(root))) {
			return fmt.Errorf("root %d: node %d stores parent line %d of %d into it and next line %d of %d out of the root",
				root, d, pl, len(g.In(dst)), nl, len(g.Out(root)))
		}
		p, nh, line, path := t.Parent(dst), t.NextHop(dst), t.NextLine(dst), t.Path(dst)
		if dst == root || !t.Reachable(dst) {
			if p != topology.NoLink || nh != topology.NoLink || line != -1 || path != nil {
				return fmt.Errorf("root %d: node %d is the root or unreachable, yet Parent %d, NextHop %d, NextLine %d, Path %v", root, d, p, nh, line, path)
			}
			continue
		}
		if p < 0 || int(p) >= g.NumLinks() || g.Link(p).To != dst {
			return fmt.Errorf("root %d: Parent(%d) = link %d, which does not enter node %d", root, d, p, d)
		}
		if from := g.Link(p).From; t.Dist(from)+r.Cost(p) != t.Dist(dst) {
			return fmt.Errorf("root %d: Parent(%d) = link %d is not tight: %v + %v != %v", root, d, p, t.Dist(from), r.Cost(p), t.Dist(dst))
		}
		if nh < 0 || int(nh) >= g.NumLinks() || g.Link(nh).From != root {
			return fmt.Errorf("root %d: NextHop(%d) = link %d, which does not leave the root", root, d, nh)
		}
		if out := g.Out(root); line < 0 || line >= len(out) || out[line] != nh {
			return fmt.Errorf("root %d: NextLine(%d) = %d of %d lines, NextHop says link %d", root, d, line, len(out), nh)
		}
		if len(path) == 0 || path[0] != nh || path[len(path)-1] != p || len(path) != treeHops(t, dst) {
			return fmt.Errorf("root %d: Path(%d) = %v with NextHop %d, Parent %d, Hops %d", root, d, path, nh, p, treeHops(t, dst))
		}
		for i, at := 0, root; i < len(path); i++ {
			if g.Link(path[i]).From != at {
				return fmt.Errorf("root %d: Path(%d) = %v breaks at hop %d", root, d, path, i)
			}
			at = g.Link(path[i]).To
		}
	}
	return nil
}

// refRouter is the incremental SPF as it was before trees held line numbers:
// one PSN, a plain cost per link, and parent and next hop as global link IDs.
// Same Dijkstra, same repair order, same heap — only the encoding differs, so
// a tree that disagrees with it has mistranslated a line number.
type refRouter struct {
	g               *topology.Graph
	root            topology.NodeID
	costs, dist     []float64
	parent, nextHop []topology.LinkID
	pq              nodeHeap
}

func newRefRouter(g *topology.Graph, root topology.NodeID, costs []float64) *refRouter {
	n := g.NumNodes()
	r := &refRouter{g: g, root: root, costs: append([]float64(nil), costs...),
		dist: make([]float64, n), parent: make([]topology.LinkID, n), nextHop: make([]topology.LinkID, n)}
	settled := make([]bool, n)
	for i := range r.dist {
		r.dist[i], r.parent[i], r.nextHop[i] = Infinite, topology.NoLink, topology.NoLink
	}
	r.dist[root] = 0
	r.pq.push(root, 0)
	for !r.pq.empty() {
		u, _ := r.pq.pop()
		if settled[u] {
			continue
		}
		settled[u] = true
		for _, lid := range g.Out(u) {
			if v := g.Link(lid).To; !settled[v] && r.dist[u]+costs[lid] < r.dist[v] {
				r.improve(v, r.dist[u]+costs[lid], lid)
			}
		}
	}
	return r
}

func (r *refRouter) improve(n topology.NodeID, d float64, via topology.LinkID) {
	r.dist[n], r.parent[n] = d, via
	if from := r.g.Link(via).From; from == r.root {
		r.nextHop[n] = via
	} else {
		r.nextHop[n] = r.nextHop[from]
	}
	r.pq.push(n, d)
}

func (r *refRouter) relax(inSet []bool) {
	for !r.pq.empty() {
		top, d := r.pq.pop()
		if d > r.dist[top] {
			continue
		}
		for _, lid := range r.g.Out(top) {
			to := r.g.Link(lid).To
			if inSet != nil && !inSet[to] {
				continue
			}
			if d := r.dist[top] + r.costs[lid]; d < r.dist[to] {
				r.improve(to, d, lid)
			} else if d == r.dist[to] && r.parent[to] == lid && r.nextHop[to] != r.nextHop[top] {
				r.nextHop[to] = r.nextHop[top] // top's line moved, to's sum did not
				r.pq.push(to, d)
			}
		}
	}
}

func (r *refRouter) update(l topology.LinkID, c float64) {
	old := r.costs[l]
	r.costs[l] = c
	link := r.g.Link(l)
	r.pq.reset()
	switch {
	case c < old:
		if du := r.dist[link.From]; !math.IsInf(du, 1) && du+c < r.dist[link.To] {
			r.improve(link.To, du+c, l)
			r.relax(nil)
		}
	case c > old && r.parent[link.To] == l:
		inSet := make([]bool, r.g.NumNodes())
		inSet[link.To] = true
		for stack := []topology.NodeID{link.To}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, lid := range r.g.Out(x) {
				if child := r.g.Link(lid).To; !inSet[child] && r.parent[child] == lid {
					inSet[child] = true
					stack = append(stack, child)
				}
			}
		}
		for i := range inSet {
			if inSet[i] {
				r.dist[i], r.parent[i], r.nextHop[i] = Infinite, topology.NoLink, topology.NoLink
			}
		}
		for i := range inSet {
			if !inSet[i] {
				continue
			}
			for _, lid := range r.g.In(topology.NodeID(i)) {
				from := r.g.Link(lid).From
				if inSet[from] || math.IsInf(r.dist[from], 1) {
					continue
				}
				if d := r.dist[from] + r.costs[lid]; d < r.dist[i] {
					r.improve(topology.NodeID(i), d, lid)
				}
			}
		}
		r.relax(inSet)
	}
}

// addParallelTrunks lays k trunks beside existing ones, each picked by rng
// from every link the graph has so far, so one may be tripled.
func addParallelTrunks(g *topology.Graph, rng *rand.Rand, k int) {
	for ; k > 0; k-- {
		l := g.Link(topology.LinkID(rng.Intn(g.NumLinks())))
		g.AddTrunk(l.To, l.From, topology.T56)
	}
}

// A tree stores which of a PSN's lines, not which of the graph's links. Two
// encodings can agree with each other and both be wrong, so the routers of a
// shared table are compared, after every Accept and Update, with a reference
// that never narrows a link ID, and walked through Parent/NextHop/NextLine/
// Path. Parallel trunks make "the line to that neighbour" ambiguous — only
// the line number tells them apart — and the 300-spoke hub has lines past 255,
// which is why the width is 16 bits: an 8-bit tree sends every destination
// behind spoke 256+k out on line k.
func TestLineNumbersAgainstLinkIDReference(t *testing.T) {
	type tc struct {
		name  string
		g     *topology.Graph
		roots []topology.NodeID
	}
	var cases []tc
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(8+rng.Intn(10), 3, seed)
		addParallelTrunks(g, rng, 6) // double, sometimes triple, existing trunks
		cases = append(cases, tc{fmt.Sprintf("parallel trunks, seed %d", seed), g, allRoots(g)})
	}
	hub := topology.New()
	h := hub.AddNode("HUB")
	const spokes = 300
	for i := 0; i < spokes; i++ {
		hub.AddTrunk(h, hub.AddNode(fmt.Sprintf("S%d", i)), topology.T56)
	}
	for i := 0; i < spokes; i += 7 { // a few ways round the hub, so raising a spoke's line reroutes
		hub.AddTrunk(topology.NodeID(1+i), topology.NodeID(1+(i+1)%spokes), topology.T56)
	}
	cases = append(cases, tc{"300-spoke hub", hub, []topology.NodeID{h, 1, 2, 255, 256, 257, spokes}})

	for _, c := range cases {
		g, rng := c.g, rand.New(rand.NewSource(int64(len(c.name))))
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = float64(1 + rng.Intn(4))
		}
		tab := NewTable(g, c.roots, costs)
		refs := make([]*refRouter, len(c.roots))
		for i, root := range c.roots {
			refs[i] = newRefRouter(g, root, costs)
		}
		seqs := make([]uint64, g.NumNodes())
		var u *flooding.Update
		for step := 0; step < 120; step++ {
			cost := func(topology.LinkID) float64 {
				if rng.Intn(12) == 0 {
					return 1e6 // outage-grade rise: detaches a subtree
				}
				return float64(1 + rng.Intn(4))
			}
			switch {
			case step%3 == 2: // one router moves one link alone
				i, l, cl := rng.Intn(len(refs)), topology.LinkID(rng.Intn(g.NumLinks())), cost(0)
				tab.Router(i).Update(l, cl)
				refs[i].update(l, cl)
			case step%3 == 1 && u != nil: // the routers that missed the last update catch up
				for i, ref := range refs {
					if tab.Router(i).Accept(u) {
						for j, l := range u.Links {
							ref.update(l, u.Costs[j])
						}
					}
				}
			default: // an origin reports; every other router hears it now
				o := topology.NodeID(rng.Intn(g.NumNodes()))
				if step%2 == 0 && c.g == hub {
					o = h // the hub's 300-line row is the one that matters there
				}
				seqs[o]++
				u = wholeUpdate(g, o, seqs[o], cost)
				for i, ref := range refs {
					if i%2 == step%2 {
						continue
					}
					if !tab.Router(i).Accept(u) {
						t.Fatalf("%s step %d router %d: fresh update %d/%d refused", c.name, step, i, o, u.Seq)
					}
					for j, l := range u.Links {
						ref.update(l, u.Costs[j])
					}
				}
			}
			compareWithReference(t, fmt.Sprintf("%s step %d", c.name, step), tab, refs)
		}
		if st := tab.Stats(); st.Repairs < 100 || st.Skipped == 0 {
			t.Errorf("%s: only %d repairs and %d skips; the run proves little", c.name, st.Repairs, st.Skipped)
		}
	}

	// One input small integer costs never reach: a one-ulp improvement above
	// a long link. R reaches A directly at 3 and through M at 3.5; M→A then
	// drops so A sits one ulp below 3 through M, on R's other line. B lies
	// 1000 beyond A: 1003 either way, so B is never improved — yet its path
	// now leaves through M, and its line must follow.
	g := topology.New()
	r, a, m, b := g.AddNode("R"), g.AddNode("A"), g.AddNode("M"), g.AddNode("B")
	ra, _ := g.AddTrunk(r, a, topology.T56)
	rm, _ := g.AddTrunk(r, m, topology.T56)
	ma, _ := g.AddTrunk(m, a, topology.T56)
	ab, _ := g.AddTrunk(a, b, topology.T56)
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 1
	}
	costs[ra], costs[rm], costs[ma], costs[ab] = 3, 1, 2.5, 1000
	tab := NewTable(g, allRoots(g), costs)
	var refs []*refRouter
	for _, root := range allRoots(g) {
		refs = append(refs, newRefRouter(g, root, costs))
	}
	ulp := math.Nextafter(3, 0) - 1 // exact: 1 + ulp is the float below 3
	for i, ref := range refs {
		tab.Router(i).Update(ma, ulp)
		ref.update(ma, ulp)
	}
	compareWithReference(t, "one-ulp improvement", tab, refs)
	if line := tab.Router(int(r)).Tree().NextLine(b); line != g.OutLine(rm) {
		t.Errorf("one-ulp improvement: R forwards to B on line %d, want %d (toward M)", line, g.OutLine(rm))
	}
}

// compareWithReference requires every router of tab to pass checkLines and
// to agree, entry by entry, with its link-ID reference.
func compareWithReference(t *testing.T, at string, tab *Table, refs []*refRouter) {
	t.Helper()
	g := tab.g
	for i, ref := range refs {
		r := tab.Router(i)
		if err := checkLines(r); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		for d := 0; d < g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			if r.Tree().Dist(dst) != ref.dist[d] || r.Tree().Parent(dst) != ref.parent[d] || r.Tree().NextHop(dst) != ref.nextHop[d] {
				t.Fatalf("%s root %d node %d: tree says dist %v parent %d next hop %d, the link-ID reference %v / %d / %d",
					at, ref.root, d, r.Tree().Dist(dst), r.Tree().Parent(dst), r.Tree().NextHop(dst), ref.dist[d], ref.parent[d], ref.nextHop[d])
			}
		}
	}
}

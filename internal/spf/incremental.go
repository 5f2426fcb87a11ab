package spf

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// This file implements the PSN's incremental SPF proper: instead of
// rerunning Dijkstra from scratch on every link-cost change, only the part
// of the tree the change can affect is repaired (§2.2: "The algorithm in
// the PSN is an incremental SPF algorithm that attempts to perform only
// incremental adjustments necessitated by a link cost change").
//
// Decreases grow a Dijkstra frontier from the improved endpoint; increases
// detach the subtree hanging off the changed tree link and re-attach it
// through the cheapest boundary edges (the classic two-phase repair). Both
// yield distances identical to a from-scratch computation; only the
// tie-breaking among equal-cost paths may differ, which routing is
// insensitive to.

// Table is the routing state of the PSNs one goroutine drives, link-cost
// database included. Its only writer is a flooded update carrying all of one
// origin's lines, and it is "identical at every PSN once flooding converges"
// (§2.2), so the table holds it once: per origin, the updates some router
// still holds — one, outside a flood wave — each with the set of routers whose
// row it is. A PSN keeps its tree, 12·N bytes, and a bit per version. Every
// repair initializes what it reads of the scratch, so sharing never shows in a
// result; it does mean a Table, database and routers, belongs to one goroutine.
type Table struct {
	g       *topology.Graph
	routers []IncrementalRouter
	boot    []float64   // by link: the cost every router started from
	db      [][]version // by origin: the versions held, newest first; none held = boot costs
	sets    []uint64    // holder sets, words apiece: bit i of a version's set says routers[i] holds it
	free    []int32     // sets no version uses, all zero
	words   int

	// Repair scratch, reused so steady-state repairs allocate nothing. While
	// Accept repairs, staging is the row of origin repairing (else topology.NoNode).
	pq        nodeHeap
	inSet     []bool
	stack     []topology.NodeID
	staging   flooding.Update
	repairing topology.NodeID
}

// version is one update of an origin and the routers whose row it is.
type version struct {
	u       *flooding.Update
	set     int32 // its holder set, t.sets[set*words:][:words]
	n       int32 // bits set there; the version is dropped at 0
	private bool  // cloned by Update for its one holder, which may write it
}

// IncrementalRouter is one PSN's routing state: the SPF tree rooted at it,
// repaired in place, and its bit in the table's database. It reports how many
// nodes each update touched — the PSN-CPU proxy of the overhead experiments.
type IncrementalRouter struct {
	tab  *Table
	root topology.NodeID
	idx  int32 // position in tab.routers: its bit in every holder set
	tree Tree  // rows of the table's tree slabs

	accepted    int64 // updates installed by Accept
	duplicates  int64 // updates Accept refused as stale or repeated
	full        int64 // from-scratch computations (the boot)
	incremental int64 // in-place repairs
	skipped     int64 // link changes provably without effect
	touched     int64 // total nodes visited by repairs
}

// NewTable boots one router per root from the same initial costs (copied).
// Each tree is computed straight into the router's rows on Dial's bucket
// queue (boot.go); a root whose queue meets a tie, and every root when the
// costs spread too wide, is computed by the binary heap of one Workspace and
// copied out. Either way the tree is the heap's, bit for bit, and nothing a
// router holds aliases Dijkstra scratch.
func NewTable(g *topology.Graph, roots []topology.NodeID, costs []float64) *Table {
	nl, nn := g.NumLinks(), g.NumNodes()
	if len(costs) != nl {
		panic("spf: costs length mismatch")
	}
	for _, c := range costs {
		if !validCost(c) {
			panic("spf: link cost must be positive and finite")
		}
	}
	t := &Table{
		g:         g,
		routers:   make([]IncrementalRouter, len(roots)),
		boot:      append([]float64(nil), costs...),
		db:        make([][]version, nn),
		words:     (len(roots) + 63) / 64,
		free:      make([]int32, 0, 2*nn),
		repairing: topology.NoNode,
	}
	// Room for a flood wave everywhere at once (two holder sets an origin) and a third version: origins outrun their floods.
	t.sets = make([]uint64, 0, 2*nn*t.words)
	slots := make([]version, 3*nn)
	for n := 0; n < nn; n++ {
		t.db[n] = slots[3*n : 3*n : 3*n+3]
	}
	dist := make([]float64, len(roots)*nn)
	parent := make([]uint16, len(roots)*nn)
	nextHop := make([]uint16, len(roots)*nn)
	q := newBootQueue(g, costs)
	var ws Workspace
	for i, root := range roots {
		r := &t.routers[i]
		r.tab, r.root, r.idx, r.full = t, root, int32(i), 1
		lo, hi := i*nn, (i+1)*nn
		r.tree = Tree{g: g, root: root, dist: dist[lo:hi:hi], parent: parent[lo:hi:hi], nextHop: nextHop[lo:hi:hi]}
		if q.tree(&r.tree) {
			continue
		}
		boot := ws.dijkstra(g, root, costs)
		copy(r.tree.dist, boot.dist)
		copy(r.tree.parent, boot.parent)
		copy(r.tree.nextHop, boot.nextHop)
	}
	return t
}

// Router returns the router booted for roots[i]. The pointer stays valid
// for the life of the table.
func (t *Table) Router(i int) *IncrementalRouter { return &t.routers[i] }

// TableStats sums the counters of a table's routers: every update copy was
// Accepted or a Duplicate; every link change an accepted update carried
// Repaired the tree (visiting Touched nodes) or was Skipped as without effect.
type TableStats struct {
	Accepted, Duplicates, Repairs, Skipped, Touched int64
}

// Plus adds two tables' counters.
func (s TableStats) Plus(o TableStats) TableStats {
	return TableStats{s.Accepted + o.Accepted, s.Duplicates + o.Duplicates,
		s.Repairs + o.Repairs, s.Skipped + o.Skipped, s.Touched + o.Touched}
}

// Stats returns the table's counters, on the owning goroutine.
func (t *Table) Stats() TableStats {
	var s TableStats
	for i := range t.routers {
		r := &t.routers[i]
		s = s.Plus(TableStats{r.accepted, r.duplicates, r.incremental, r.skipped, r.touched})
	}
	return s
}

// Updates calls fn with every flooded update some router of the table still
// holds, each once: by origin, newest first. The rows Update cloned for one
// router to write are not flooded updates and are left out.
func (t *Table) Updates(fn func(*flooding.Update)) {
	for _, vs := range t.db {
		for _, v := range vs {
			if !v.private {
				fn(v.u)
			}
		}
	}
}

// Updates calls fn with the flooded update this router holds for each origin,
// in origin order: its row, unless the row is still the boot costs or a clone
// Update made. It is what a PSN sends a neighbour whose line comes back up.
func (r *IncrementalRouter) Updates(fn func(*flooding.Update)) {
	for o, vs := range r.tab.db {
		if i := r.held(topology.NodeID(o)); i >= 0 && !vs[i].private {
			fn(vs[i].u)
		}
	}
}

// NewIncrementalRouter creates an incremental router with explicit initial
// costs (copied): a Table of one.
func NewIncrementalRouter(g *topology.Graph, root topology.NodeID, costs []float64) *IncrementalRouter {
	return NewTable(g, []topology.NodeID{root}, costs).Router(0)
}

func validCost(c float64) bool {
	return c > 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
}

// Tree returns the current SPF tree. It is mutated in place by updates;
// callers must re-read after Accept or Update.
func (r *IncrementalRouter) Tree() *Tree { return &r.tree }

// Cost returns the router's current belief about a link's cost.
func (r *IncrementalRouter) Cost(l topology.LinkID) float64 {
	return r.cost(r.tab.origin(l), l)
}

// origin returns the node link l leaves; a link outside the graph panics by name.
func (t *Table) origin(l topology.LinkID) topology.NodeID {
	if uint(l) >= uint(len(t.boot)) {
		panic(fmt.Sprintf("spf: link %d: graph has %d links", l, len(t.boot)))
	}
	return t.g.Link(l).From
}

// cost reads link l, which leaves node from, out of the database.
func (r *IncrementalRouter) cost(from topology.NodeID, l topology.LinkID) float64 {
	if row := r.row(from); row != nil {
		return row.Costs[r.tab.g.OutLine(l)]
	}
	return r.tab.boot[l]
}

// held returns the index in db[o] of the version this router holds, -1 for boot costs.
func (r *IncrementalRouter) held(o topology.NodeID) int {
	for i, vs := 0, r.tab.db[o]; i < len(vs); i++ {
		if r.tab.sets[int(vs[i].set)*r.tab.words+int(r.idx>>6)]>>(r.idx&63)&1 != 0 {
			return i
		}
	}
	return -1
}

// row returns origin o's row: the staging row while Accept repairs o, else the update held, nil for boot costs.
func (r *IncrementalRouter) row(o topology.NodeID) *flooding.Update {
	if o == r.tab.repairing {
		return &r.tab.staging
	}
	if i := r.held(o); i >= 0 {
		return r.tab.db[o][i].u
	}
	return nil
}

// hold makes u this router's row for u's origin. Its bit leaves version from (-1: boot costs), dropped with its
// last holder, and joins u's version, made — newest first — if no router of the table holds u; hold returns its index.
func (r *IncrementalRouter) hold(u *flooding.Update, from int, private bool) int {
	t := r.tab
	vs, w, bit := t.db[u.Origin], int(r.idx>>6), uint64(1)<<(r.idx&63)
	if from >= 0 {
		v := &vs[from]
		t.sets[int(v.set)*t.words+w] &^= bit
		if v.n--; v.n == 0 {
			t.free = append(t.free, v.set)
			vs = slices.Delete(vs, from, from+1)
		}
	}
	to := slices.IndexFunc(vs, func(v version) bool { return v.u == u })
	if to < 0 {
		for to = 0; to < len(vs) && vs[to].u.Seq > u.Seq; to++ {
		}
		if len(t.free) == 0 {
			t.free = append(t.free, int32(len(t.sets)/t.words))
			t.sets = append(t.sets, make([]uint64, t.words)...)
		}
		n := len(t.free) - 1
		vs = slices.Insert(vs, to, version{u: u, set: t.free[n], private: private})
		t.free = t.free[:n]
	}
	t.sets[int(vs[to].set)*t.words+w] |= bit
	vs[to].n++
	t.db[u.Origin] = vs
	return to
}

// Stats returns the repair counters: full recomputations, incremental
// repairs, skipped updates, and total nodes touched by repairs.
func (r *IncrementalRouter) Stats() (full, incremental, skipped, touched int64) {
	return r.full, r.incremental, r.skipped, r.touched
}

// Accept is the PSN's whole reaction to one copy of a routing update. A
// sequence number no newer than the one held for u's origin is a duplicate:
// nothing changes and Accept reports false (the caller does not forward).
// Otherwise u — the pointer; it is immutable and only ever read — becomes
// the origin's row, the tree is repaired, and Accept reports true. u must
// list exactly the origin's out-links in graph order, as both engines do.
//
// Tie-breaks among equal-cost paths depend on the order repairs see costs
// change, so the repairs run against the staging row, which starts as the
// old row and takes u's costs one link at a time — links before the one
// under repair read new, links after it old, exactly as through per-link
// Update — and u itself is published after the last repair.
func (r *IncrementalRouter) Accept(u *flooding.Update) bool {
	t := r.tab
	if uint(u.Origin) >= uint(len(t.db)) {
		panic(fmt.Sprintf("spf: update %d from node %d: graph has %d nodes", u.Seq, u.Origin, len(t.db)))
	}
	held := r.held(u.Origin)
	// Most copies repeat the version held: identity settles those before the dependent load of its Seq.
	if old := t.db[u.Origin]; held >= 0 && (old[held].u == u || u.Seq <= old[held].u.Seq) {
		r.duplicates++
		return false
	}
	out := t.g.Out(u.Origin)
	if own := len(u.Links) == len(out) && (len(out) == 0 || &u.Links[0] == &out[0]); !own && !slices.Equal(u.Links, out) {
		panic(fmt.Sprintf("spf: update %d from node %d lists links %v, want exactly its out-links %v in order",
			u.Seq, u.Origin, u.Links, out))
	}
	stage := t.staging.Costs[:0]
	for _, l := range out {
		// Allocates: the staging row grows to the largest out-degree seen, then reuses
		stage = append(stage, r.cost(u.Origin, l))
	}
	t.staging.Costs = stage
	t.repairing = u.Origin
	for i, l := range out {
		r.set(l, &stage[i], u.Costs[i])
	}
	t.repairing = topology.NoNode
	r.hold(u, held, false)
	r.accepted++
	return true
}

// Update applies one link-cost change, repairing the tree incrementally —
// the single-link form the SPF oracle and the micro-benchmark drive. A shared
// update is never written: the first Update on a link of origin o clones o's
// row, sequence number included, into a private version this router alone
// holds; later ones write it in place, and an Accept for o replaces it.
func (r *IncrementalRouter) Update(l topology.LinkID, newCost float64) {
	if !validCost(newCost) {
		panic("spf: link cost must be positive and finite")
	}
	t := r.tab
	o := t.origin(l)
	i := r.held(o)
	if i < 0 || !t.db[o][i].private {
		out := t.g.Out(o)
		p := &flooding.Update{Origin: o, Links: out, Costs: make([]float64, len(out))}
		for j, ol := range out {
			p.Costs[j] = r.cost(o, ol)
		}
		if i >= 0 {
			p.Seq = t.db[o][i].u.Seq
		}
		i = r.hold(p, i, true)
	}
	r.set(l, &t.db[o][i].u.Costs[t.g.OutLine(l)], newCost)
}

// set writes one link's new cost into its slot of a writable row (staging or
// private, already the one row reads) and repairs the tree for it.
func (r *IncrementalRouter) set(l topology.LinkID, slot *float64, newCost float64) {
	old := *slot
	// Change detection against the stored copy of this link's cost, not recomputed arithmetic
	if newCost == old {
		return
	}
	*slot = newCost
	link := r.tab.g.Link(l)
	if newCost < old {
		r.repairDecrease(link, newCost)
	} else {
		r.repairIncrease(link)
	}
}

// repairDecrease handles a cost drop on (u,v): if it creates a shorter
// path to v, grow a Dijkstra frontier from v until no further improvement.
func (r *IncrementalRouter) repairDecrease(link topology.Link, c float64) {
	t := &r.tree
	du := t.dist[link.From]
	if math.IsInf(du, 1) || du+c >= t.dist[link.To] {
		r.skipped++
		return
	}
	r.incremental++
	pq := &r.tab.pq
	pq.reset()
	r.improve(link.To, du+c, link.ID, pq)
	r.relaxFrontier(pq, nil)
}

// improve lowers a node's distance and fixes its parent/next-hop.
func (r *IncrementalRouter) improve(n topology.NodeID, d float64, via topology.LinkID, pq *nodeHeap) {
	t, g := &r.tree, r.tab.g
	t.dist[n] = d
	t.parent[n] = uint16(g.InLine(via))
	from := g.Link(via).From
	if from == r.root {
		t.nextHop[n] = uint16(g.OutLine(via))
	} else {
		t.nextHop[n] = t.nextHop[from]
	}
	pq.push(n, d)
}

// relaxFrontier runs Dijkstra from an initialized frontier. If inSet is
// non-nil, only nodes with inSet true may be improved (used by the
// increase repair, which must not touch the intact part of the tree).
//
// A node whose distance fell may have changed its first line while its
// children's sums round to their old distances — a one-ulp improvement
// above a long link — so they are never improved. A child reached at its
// own distance over its own parent line therefore takes top's line and
// is pushed to pass it down; its distance and parent stay. (top is never
// the root: every node pushed here has a positive distance.)
func (r *IncrementalRouter) relaxFrontier(pq *nodeHeap, inSet []bool) {
	t, g, boot := &r.tree, r.tab.g, r.tab.boot
	for !pq.empty() {
		// Lazy deletion: skip stale entries.
		top, topDist := pq.pop()
		if topDist > t.dist[top] {
			continue
		}
		r.touched++
		row := r.row(top) // top's out-links, in g.Out order; nil = still at boot
		for i, lid := range g.Out(top) {
			to := g.Link(lid).To
			if inSet != nil && !inSet[to] {
				continue
			}
			c := boot[lid]
			if row != nil {
				c = row.Costs[i]
			}
			if d := t.dist[top] + c; d < t.dist[to] {
				r.improve(to, d, lid, pq)
			} else if d == t.dist[to] && t.parent[to] == uint16(g.InLine(lid)) && t.nextHop[to] != t.nextHop[top] {
				t.nextHop[to] = t.nextHop[top]
				pq.push(to, d)
			}
		}
	}
}

// repairIncrease handles a cost rise on (u,v). If (u,v) is not v's parent
// link the tree is unaffected. Otherwise the subtree rooted at v is
// detached and re-attached through its cheapest boundary edges.
// Allocates: repair scratch (inSet, stack) grows to the affected-set high-watermark, then reuses
func (r *IncrementalRouter) repairIncrease(link topology.Link) {
	t, tab, g := &r.tree, r.tab, r.tab.g
	if t.parent[link.To] != uint16(g.InLine(link.ID)) {
		r.skipped++
		return
	}
	r.incremental++

	// Phase 1: collect the detached subtree (descendants of v, including v).
	n := g.NumNodes()
	if len(tab.inSet) != n {
		tab.inSet = make([]bool, n)
	}
	inSet := tab.inSet
	for i := range inSet {
		inSet[i] = false
	}
	stack := tab.stack[:0]
	inSet[link.To] = true
	stack = append(stack, link.To)
	// children: nodes whose parent link originates at a set member. A
	// simple pass per pop keeps this O(|A|·degree) without child lists.
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.Out(x) {
			child := g.Link(lid).To
			if !inSet[child] && t.parent[child] == uint16(g.InLine(lid)) {
				inSet[child] = true
				stack = append(stack, child)
			}
		}
	}
	tab.stack = stack // keep the grown capacity for the next repair

	// Phase 2: reset the detached nodes and seed the frontier with the
	// best edge from the intact region into each detached node (including
	// the raised link itself, which may still be the best way in).
	for i := range inSet {
		if inSet[i] {
			t.dist[i] = Infinite
			t.parent[i] = noLine
			t.nextHop[i] = noLine
		}
	}
	pq := &tab.pq
	pq.reset()
	for i := range inSet {
		if !inSet[i] {
			continue
		}
		node := topology.NodeID(i)
		for _, lid := range g.In(node) {
			from := g.Link(lid).From
			if inSet[from] || math.IsInf(t.dist[from], 1) {
				continue
			}
			if d := t.dist[from] + r.cost(from, lid); d < t.dist[node] {
				r.improve(node, d, lid, pq)
			}
		}
	}

	// Phase 3: Dijkstra restricted to the detached set.
	r.relaxFrontier(pq, inSet)
}

package topology

import "math/bits"

// Search is a reusable breadth-first search over a graph's links: the one
// answer to "how many hops from s over these links" — Table 1's minimum
// path, the §5 model's hop distances with one link removed, connected
// components, the flood diameter and the sharded engine's destination
// balls. A From costs only the nodes and links it reaches: nodes are
// stamped with the search's generation instead of being reset, and the
// queue is kept across calls. Not safe for concurrent use.
type Search struct {
	g     *Graph
	visit []visit  // by node; current only where gen matches
	gen   uint32   // the last From's stamp
	order []NodeID // the nodes the last From reached, in BFS order
}

type visit struct {
	gen  uint32
	hops int32
}

// NewSearch returns a search over g.
func NewSearch(g *Graph) *Search {
	return &Search{g: g, visit: make([]visit, g.NumNodes())}
}

// From searches from src over the links up admits (every link when up is
// nil), reaching nodes at most maxHops away (any distance when maxHops is
// negative). It returns the nodes reached in BFS order, src first — hops
// never decrease along it, and among nodes at one distance the order
// follows Out's link order. The slice is the search's: it is valid until
// the next From.
func (s *Search) From(src NodeID, maxHops int, up func(LinkID) bool) []NodeID {
	if s.gen++; s.gen == 0 { // wrapped: no stamp may look current
		clear(s.visit)
		s.gen = 1
	}
	s.visit[src] = visit{s.gen, 0}
	s.order = append(s.order[:0], src)
	for i := 0; i < len(s.order); i++ {
		u := s.order[i]
		h := s.visit[u].hops
		if int(h) == maxHops {
			break // BFS order: every later node is as far as u
		}
		for _, l := range s.g.Out(u) {
			v := s.g.links[l].To
			if s.visit[v].gen != s.gen && (up == nil || up(l)) {
				s.visit[v] = visit{s.gen, h + 1}
				s.order = append(s.order, v)
			}
		}
	}
	return s.order
}

// Hops returns v's distance in hops from the last From's source, or -1 if
// that search did not reach it.
func (s *Search) Hops(v NodeID) int {
	if s.visit[v].gen != s.gen {
		return -1
	}
	return int(s.visit[v].hops)
}

// AllHops calls fn for every node s of g, ascending, with hops, the hop
// count from s to any node over all links (-1 for a node s does not reach).
// It runs 64 of the searches at once, one bit of a word each: level h of a
// pass is the set of the pass's sources within h hops of each node, one
// pass over the links from level h-1, so the whole table costs about a
// tenth of a From from every node. Each (source, node) hop count is
// recorded in the level where its bit first appears, so hops is O(1); it is
// valid only during the call.
func AllHops(g *Graph, fn func(s NodeID, hops func(v NodeID) int)) {
	n := g.NumNodes()
	// prev[v] and next[v] have a bit for each of the pass's sources within
	// h-1 and h hops of v; dist[64·v+b] is 1 + v's hop count from source
	// base+b, 0 while unreached, in 16 bits to keep the table small.
	prev, next := make([]uint64, n), make([]uint64, n)
	dist := make([]uint16, 64*n)
	var b int
	hops := func(v NodeID) int { return int(dist[64*int(v)+b]) - 1 }
	for base := 0; base < n; base += 64 {
		clear(prev)
		clear(dist)
		for s := base; s < min(base+64, n); s++ {
			prev[s] = 1 << (s - base)
			dist[64*s+s-base] = 1
		}
		for h, grew := uint16(2), true; grew; h++ { // h is 1 + the level's hops, as dist holds them
			if h == 0 {
				panic("topology: AllHops holds hop counts below 65,535")
			}
			copy(next, prev)
			for _, l := range g.links {
				next[l.To] |= prev[l.From]
			}
			grew = false
			for v, set := range next {
				for fresh := set &^ prev[v]; fresh != 0; fresh &= fresh - 1 {
					dist[64*v+bits.TrailingZeros64(fresh)] = h
					grew = true
				}
			}
			prev, next = next, prev
		}
		for s := base; s < min(base+64, n); s++ {
			b = s - base
			fn(NodeID(s), hops)
		}
	}
}

// Components labels each node of g with its connected component over the
// links up admits (every link when up is nil): 0, 1, … in increasing order
// of each component's lowest node ID.
func Components(g *Graph, up func(LinkID) bool) []int {
	comp := make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	s := NewSearch(g)
	next := 0
	for v := range comp {
		if comp[v] >= 0 {
			continue
		}
		for _, u := range s.From(NodeID(v), -1, up) {
			comp[u] = next
		}
		next++
	}
	return comp
}

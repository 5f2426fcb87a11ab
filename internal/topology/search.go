package topology

import "slices"

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
// tenth of a From from every node. hops reads the levels (O(diameter)), and
// is valid only during the call.
func AllHops(g *Graph, fn func(s NodeID, hops func(v NodeID) int)) {
	n := g.NumNodes()
	// within[h][v] has a bit for each of the pass's sources at most h hops
	// from v; the levels are reused from pass to pass.
	within := [][]uint64{make([]uint64, n)}
	for base := 0; base < n; base += 64 {
		clear(within[0])
		for s := base; s < min(base+64, n); s++ {
			within[0][s] = 1 << (s - base)
		}
		h := 1
		for ; ; h++ {
			if h == len(within) {
				within = append(within, make([]uint64, n))
			}
			prev, next := within[h-1], within[h]
			copy(next, prev)
			for _, l := range g.links {
				next[l.To] |= prev[l.From]
			}
			if slices.Equal(next, prev) {
				break
			}
		}
		levels, bit := within[:h], uint64(0)
		hops := func(v NodeID) int {
			for d, set := range levels {
				if set[v]&bit != 0 {
					return d
				}
			}
			return -1
		}
		for s := base; s < min(base+64, n); s++ {
			bit = 1 << (s - base)
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

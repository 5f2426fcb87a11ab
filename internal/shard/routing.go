package shard

// Static routing for the sharded runner (v1 scope): next hops are computed up
// front by reverse Dijkstra over a fixed link cost, one tree per destination.
// Every shard reads the same precomputed table, so routing adds no
// cross-shard communication and no nondeterminism. No static trunk ever goes
// down — a PSN hears of a line failure only through a flooded update (§2.2),
// so New refuses Faults without Config.Adaptive — and Graph.Validate requires
// a connected graph, so every node has a line toward every destination. An
// entry is a line number of the forwarding node — which of its own lines,
// §2.2 — so both planes forward on lnode.out[line].
//
// A PSN forwards by destination alone, so a packet toward d is only ever
// looked up at a node of d's closure: d's sources (the nodes whose drawn
// destination set names it) and every node the next hop leads to from there.
// The table keeps those (node, destination) entries and no others, each
// node's in an open-addressed table keyed by destination: an 8-byte record,
// 4/3 records an entry and one more a node. A dense table holds 2 bytes for
// every (node, destination) pair, so once about a fifth of the pairs are kept
// — all-pairs traffic, or 200 uniform destinations a node on hier:32x32 —
// this one is the larger. Config.Adaptive replaces the table with the
// measurement-driven plane of adaptive.go.
//
// All arithmetic is integer: costs are ticks (microseconds) and the
// priority-queue key packs (dist, node) into one int64, so relaxation order
// never depends on float comparison quirks.

import (
	"fmt"
	"math"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// nodeBits sizes the (dist, node) heap key: node IDs fit in 20 bits (over a
// million nodes), leaving 43 bits of distance — enough for 2^23 maximal
// hops. Packing makes heap order a single integer comparison, totally
// ordered even between equal distances (lowest node wins).
const nodeBits = 20

// MaxStaticNodes is the largest graph the static plane routes: one node more
// and two heap keys alias. New refuses it by name; the adaptive plane, which
// keeps no packed key, has no such limit.
const MaxStaticNodes = 1 << nodeBits

// staticPlaneFits is New's check of that limit, on the node count alone.
func staticPlaneFits(nodes int, adaptive bool) error {
	if !adaptive && nodes > MaxStaticNodes {
		return fmt.Errorf("shard: %d nodes, but static routes pack the node ID into %d bits (at most %d nodes); set Adaptive",
			nodes, nodeBits, MaxStaticNodes)
	}
	return nil
}

// maxEntries bounds the table so that record numbers — 4/3 records an entry
// and one a node — fit in int32.
const maxEntries = 1 << 30

const infDist = math.MaxInt64

type routing struct {
	dests   int // distinct destinations, for RouteStats' dense comparison
	entries int // (node, destination) pairs kept

	// Node v's table is records base[v] up to base[v+1] of rec, 4/3 of its
	// entries and one more, so that at least one stays empty; an entry sits
	// at or past slotOf its destination, by linear probing. A lookup finds
	// the key it probes and the line it returns in one record.
	base []int32
	rec  []entry
}

// entry is one record: a key — the destination plus one in a node's table (0
// marks an empty record), the node in finalize's destination-major buffer —
// and the node's line toward the destination, its index in Graph.Out(node)
// and lnode.out.
type entry struct {
	key  uint32
	line uint16
}

// entryBytes is an entry's size, padding included.
const entryBytes = 8

// arc is what a tree reads of a link, 16 bytes of it instead of a 48-byte
// topology.Link copy per relaxation.
type arc struct {
	cost     int64 // linkCost: prop + mean transmission + processing, >= 1 tick
	from, to int32
}

// treeScratch is what finalize's trees share and nothing keeps afterwards.
type treeScratch struct {
	arcs []arc   // per link
	dist []int64 // per node: distance to the current destination
	heap []int64 // (dist, node) keys, emptied by every tree; never outgrows its capacity
}

// linkCost returns the static routing weight of a link in ticks: propagation
// delay plus mean-size transmission time plus processing, at least one tick.
// The mean transmission term uses the truncated-exponential mean matching
// the traffic model's size clamp.
func linkCost(l topology.Link) sim.Time {
	c := sim.FromSeconds(l.PropDelay) +
		sim.FromSeconds(node.ClampedMeanPktBits()/l.Type.Bandwidth()) +
		node.ProcessingDelay
	if c < 1 {
		c = 1
	}
	return c
}

// buildRouting computes the static routes for the traffic model's
// destination sets: destsOf(v) is where node v sends.
func buildRouting(g *topology.Graph, destsOf func(topology.NodeID) []topology.NodeID) (*routing, error) {
	r := &routing{}
	if err := r.finalize(g, destsOf); err != nil {
		return nil, err
	}
	return r, nil
}

// finalize runs one tree per destination and keeps the entries of each
// destination's closure. It allocates the same arrays however many
// destinations there are; only the destination-major buffer of entries grows,
// where forwarding extends closures past the demands.
func (r *routing) finalize(g *topology.Graph, destsOf func(topology.NodeID) []topology.NodeID) error {
	n := g.NumNodes()
	ts := treeScratch{
		arcs: make([]arc, g.NumLinks()),
		dist: make([]int64, n),
		heap: make([]int64, 0, g.NumLinks()+1), // a key per relaxation: every link at most once
	}
	for i, l := range g.Links() {
		ts.arcs[i] = arc{cost: int64(linkCost(l)), from: int32(l.From), to: int32(l.To)}
	}

	// Each destination's sources, ascending: srcs[from[d]:from[d+1]].
	from := make([]int32, n+1)
	for v := range n {
		for _, d := range destsOf(topology.NodeID(v)) {
			from[d+1]++
		}
	}
	for d := range n {
		from[d+1] += from[d]
	}
	srcs := make([]int32, from[n])
	for v := range n {
		for _, d := range destsOf(topology.NodeID(v)) {
			srcs[from[d]] = int32(v)
			from[d]++
		}
	}
	copy(from[1:], from[:n])
	from[0] = 0

	// Each destination's closure, destination-major: d's entries are
	// buf[span[d]:span[d+1]], keyed by the node.
	seen := make([]int32, n) // 1 + the last destination whose closure took the node
	stack := make([]int32, 0, n)
	span := make([]int32, n+1)
	buf := make([]entry, 0, len(srcs))
	r.dests = 0
	for d := range n {
		span[d] = int32(len(buf))
		if from[d] == from[d+1] {
			continue
		}
		r.dests++
		mark := int32(d) + 1
		ts.tree(g, topology.NodeID(d))
		seen[d] = mark // a packet there is delivered, never looked up
		stack = stack[:0]
		for _, v := range srcs[from[d]:from[d+1]] {
			if seen[v] != mark {
				seen[v] = mark
				stack = append(stack, v)
			}
		}
		for len(stack) > 0 {
			v := topology.NodeID(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			line := ts.line(g, v)
			buf = append(buf, entry{key: uint32(v), line: line})
			if w := ts.arcs[g.Out(v)[line]].to; seen[w] != mark {
				seen[w] = mark
				stack = append(stack, w)
			}
		}
		if len(buf) > maxEntries {
			return fmt.Errorf("shard: static routes for these destination sets need more than %d (node, destination) entries; set Adaptive or draw fewer destinations", maxEntries)
		}
	}
	span[n] = int32(len(buf))

	// Each node's table, sized to its entries, filled from buf.
	count := from[:n]
	clear(count)
	for _, e := range buf {
		count[e.key]++
	}
	r.base = make([]int32, n+1)
	for v, c := range count {
		r.base[v+1] = r.base[v] + c + c/3 + 1 // at most 3/4 full, one record empty
	}
	r.rec = make([]entry, r.base[n])
	r.entries = len(buf)
	for d := range n {
		for _, e := range buf[span[d]:span[d+1]] {
			lo, size := int(r.base[e.key]), int(r.base[e.key+1]-r.base[e.key])
			h := slotOf(uint32(d), size)
			for r.rec[lo+h].key != 0 {
				if h++; h == size {
					h = 0
				}
			}
			r.rec[lo+h] = entry{key: uint32(d) + 1, line: e.line}
		}
	}
	return nil
}

// slotOf is where a node's table of size records starts probing for
// destination d: Fibonacci hashing, which spreads the runs of consecutive IDs
// radius traffic draws from, scaled to the table by a multiply.
func slotOf(d uint32, size int) int {
	return int(uint64(uint32(uint64(d)*0x9e3779b97f4a7c15>>32)) * uint64(size) >> 32)
}

// tree runs one reverse Dijkstra to dest, filling ts.dist.
func (ts *treeScratch) tree(g *topology.Graph, dest topology.NodeID) {
	dist := ts.dist
	for i := range dist {
		dist[i] = infDist
	}
	dist[dest] = 0
	heap := append(ts.heap[:0], int64(dest))
	for len(heap) > 0 {
		var key int64
		key, heap = popKey(heap)
		d := key >> nodeBits
		v := topology.NodeID(key & (1<<nodeBits - 1))
		if d > dist[v] {
			continue // stale heap entry
		}
		for _, lid := range g.In(v) {
			a := &ts.arcs[lid]
			if nd := d + a.cost; nd < dist[a.from] {
				dist[a.from] = nd
				heap = pushKey(heap, nd<<nodeBits|int64(a.from))
			}
		}
	}
}

// line returns v's line toward the last tree's destination, which v is not:
// the argmin of linkCost+dist over v's out links, strict < in Graph.Out order
// — ascending LinkID — so ties break to the lowest link ID. The graph is
// connected, so every distance the tree left is finite.
func (ts *treeScratch) line(g *topology.Graph, v topology.NodeID) uint16 {
	best, line := int64(infDist), uint16(0)
	for l, lid := range g.Out(v) {
		a := &ts.arcs[lid]
		if c := a.cost + ts.dist[a.to]; c < best {
			best = c
			line = uint16(l)
		}
	}
	return line
}

// pushKey and popKey keep h a binary min-heap of packed (dist, node) keys.
func pushKey(h []int64, key int64) []int64 {
	h = append(h, key)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popKey(h []int64) (int64, []int64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// record returns the index in rec of from's record toward dst, or -1 when
// dst's closure does not hold from.
func (r *routing) record(from, dst topology.NodeID) int {
	lo, size := int(r.base[from]), int(r.base[from+1]-r.base[from])
	for h := slotOf(uint32(dst), size); ; {
		switch r.rec[lo+h].key {
		case uint32(dst) + 1:
			return lo + h
		case 0:
			return -1
		}
		if h++; h == size {
			h = 0
		}
	}
}

// nextLine returns the line node from should forward on toward dst — an
// index into its out-links, as a tree's NextLine is on the adaptive plane. A
// lookup the closure does not hold is a routing bug, never "no route": it
// panics.
func (r *routing) nextLine(dst, from topology.NodeID) uint16 {
	k := r.record(from, dst)
	if k < 0 {
		panic(fmt.Sprintf("shard: no static route from node %d toward %d: outside that destination's closure", from, dst))
	}
	return r.rec[k].line
}

// RouteStats sizes the static plane's route table.
type RouteStats struct {
	Entries    int   // (node, destination) pairs kept
	Bytes      int64 // the table: per-node offsets and records
	DenseBytes int64 // 2·D·N: a line for every node toward every one of D destinations
}

// RouteStats returns the static route table's size (zero on the adaptive
// plane). It depends on the configuration alone and enters no Report, trace
// or digest.
func (s *Sim) RouteStats() RouteStats {
	r := s.routes
	if r == nil {
		return RouteStats{}
	}
	n := len(r.base) - 1
	return RouteStats{
		Entries:    r.entries,
		Bytes:      int64(4*len(r.base) + entryBytes*len(r.rec)),
		DenseBytes: 2 * int64(r.dests) * int64(n),
	}
}

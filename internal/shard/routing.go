package shard

// Static per-epoch routing for the sharded runner (v1 scope): next hops are
// computed up front by reverse Dijkstra over a fixed link cost, one table
// generation ("epoch") per distinct fault time. Every shard reads the same
// precomputed table, and each advances a private epoch cursor off its own
// clock, so routing adds no cross-shard communication and no
// nondeterminism. An entry is a line number of the forwarding node — which of
// its own lines, §2.2 — so both planes forward on lnode.out[line].
//
// A PSN forwards by destination alone, so a packet toward d is only ever
// looked up at a node of d's closure: d's sources (the nodes whose drawn
// destination set names it) and every node some epoch's next hop leads to
// from there — any epoch's, since a packet routed under one epoch may be
// forwarded under a later one. The table keeps those (node, destination)
// entries and no others, each node's in an open-addressed table keyed by
// destination whose records hold the lines of every epoch: for E epochs a
// record of 4+2·E bytes, rounded up to a word, 4/3 records an entry and one
// more a node. A dense table holds 2·E bytes for every (node, destination)
// pair, so once about a fifth of the pairs are kept (one epoch; over half
// with nine) — all-pairs traffic, or 200 uniform destinations a node on
// hier:32x32 — this one is the larger. Config.Adaptive replaces the table
// with the measurement-driven plane of adaptive.go.
//
// All arithmetic is integer: costs are ticks (microseconds) and the
// priority-queue key packs (dist, node) into one int64, so relaxation order
// never depends on float comparison quirks.

import (
	"fmt"
	"math"
	"slices"

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
	epochs  []sim.Time // ascending; epochs[0] == 0
	dests   int        // distinct destinations, for RouteStats' dense comparison
	entries int        // (node, destination) pairs kept

	// Node v's table is records base[v] up to base[v+1] of rec, 4/3 of its
	// entries and one more, so that at least one stays empty; an entry sits
	// at or past slotOf its destination, by linear probing. A record is w
	// words: the destination plus one (0 marks an empty record), then the
	// node's line toward it in every epoch — its index in Graph.Out(node) and
	// lnode.out, noLine where the destination is unreachable then — two to a
	// word, epoch e's in word 1+e/2, the low half for even e. A lookup finds
	// the key it probes and the line it returns on one cache line.
	w    int
	base []int32
	rec  []uint32
}

// noLine is a table entry without a route; no node has a line of that number
// (topology.AddTrunk refuses it).
const noLine = topology.MaxLines

// arc is what a tree reads of a link, 24 bytes of it instead of a 48-byte
// topology.Link copy per relaxation.
type arc struct {
	cost     int64 // linkCost: prop + mean transmission + processing, >= 1 tick
	from, to int32
	trunk    int32
}

// treeScratch is what finalize's trees share and nothing keeps afterwards.
type treeScratch struct {
	arcs []arc   // per link
	down []bool  // [epoch*trunks + trunk]
	dist []int64 // [epoch*nodes + node]: distance to the current destination
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

// buildRouting computes the static routes for the fault script and the
// traffic model's destination sets: destsOf(v) is where node v sends.
func buildRouting(g *topology.Graph, faults []Fault, destsOf func(topology.NodeID) []topology.NodeID) (*routing, error) {
	r := &routing{epochs: faultEpochs(faults)}
	if err := r.finalize(g, faults, destsOf); err != nil {
		return nil, err
	}
	return r, nil
}

// faultEpochs returns the table generations' start times: 0, then every
// distinct fault time, ascending.
func faultEpochs(faults []Fault) []sim.Time {
	epochs := []sim.Time{0}
	for _, f := range faults {
		if !slices.Contains(epochs, f.At) {
			epochs = append(epochs, f.At)
		}
	}
	slices.Sort(epochs)
	return epochs
}

// finalize runs one tree per (epoch, destination) and keeps the entries of
// each destination's closure. It allocates the same arrays however many
// destinations there are; only the destination-major buffer of entries grows,
// where forwarding extends closures past the demands.
func (r *routing) finalize(g *topology.Graph, faults []Fault, destsOf func(topology.NodeID) []topology.NodeID) error {
	n, ne, nt := g.NumNodes(), len(r.epochs), g.NumTrunks()
	ts := treeScratch{
		arcs: make([]arc, g.NumLinks()),
		down: make([]bool, ne*nt),
		dist: make([]int64, ne*n),
		heap: make([]int64, 0, g.NumLinks()+1), // a key per relaxation: every link at most once
	}
	for i, l := range g.Links() {
		ts.arcs[i] = arc{cost: int64(linkCost(l)), from: int32(l.From), to: int32(l.To), trunk: int32(l.Trunk)}
	}
	for e, at := range r.epochs {
		// Trunk state at this epoch: replay the fault script through the
		// epoch time, later entries in config order winning ties.
		down := ts.down[e*nt : (e+1)*nt]
		for _, f := range faults {
			if f.At <= at {
				down[f.Trunk] = !f.Up
			}
		}
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

	// Each destination's closure, destination-major: d's entries are records
	// span[d] up to span[d+1] of buf, shaped as rec's but naming the node
	// where rec names the destination.
	r.w = 1 + (ne+1)/2
	seen := make([]int32, n) // 1 + the last destination whose closure took the node
	stack := make([]int32, 0, n)
	span := make([]int32, n+1)
	buf := make([]uint32, 0, len(srcs)*r.w)
	r.dests = 0
	for d := range n {
		span[d] = int32(len(buf) / r.w)
		if from[d] == from[d+1] {
			continue
		}
		r.dests++
		dest, mark := topology.NodeID(d), int32(d)+1
		for e := range ne {
			ts.tree(g, dest, e)
		}
		seen[d] = mark // a packet there is delivered, never looked up
		stack = stack[:0]
		for _, v := range srcs[from[d]:from[d+1]] {
			if seen[v] != mark {
				seen[v] = mark
				stack = append(stack, v)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			k := len(buf)
			buf = append(buf, uint32(v))
			for range r.w - 1 {
				buf = append(buf, 0)
			}
			for e := range ne {
				line := ts.line(g, dest, e, topology.NodeID(v))
				buf[k+1+e/2] |= uint32(line) << (16 * (e & 1))
				if line == noLine {
					continue
				}
				if w := ts.arcs[g.Out(topology.NodeID(v))[line]].to; seen[w] != mark {
					seen[w] = mark
					stack = append(stack, w)
				}
			}
		}
		if len(buf)/r.w > maxEntries {
			return fmt.Errorf("shard: static routes for these destination sets need more than %d (node, destination) entries; set Adaptive or draw fewer destinations", maxEntries)
		}
	}
	span[n] = int32(len(buf) / r.w)

	// Each node's table, sized to its entries, filled from buf.
	count := from[:n]
	clear(count)
	for j := 0; j < len(buf); j += r.w {
		count[buf[j]]++
	}
	r.base = make([]int32, n+1)
	for v, c := range count {
		r.base[v+1] = r.base[v] + c + c/3 + 1 // at most 3/4 full, one record empty
	}
	r.rec = make([]uint32, int(r.base[n])*r.w)
	r.entries = len(buf) / r.w
	for d := range n {
		for j := int(span[d]) * r.w; j < int(span[d+1])*r.w; j += r.w {
			v := buf[j]
			lo, size := int(r.base[v]), int(r.base[v+1]-r.base[v])
			h := slotOf(uint32(d), size)
			for r.rec[(lo+h)*r.w] != 0 {
				if h++; h == size {
					h = 0
				}
			}
			k := (lo + h) * r.w
			copy(r.rec[k:k+r.w], buf[j:])
			r.rec[k] = uint32(d) + 1
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

// tree runs one reverse Dijkstra to dest over the trunks up in epoch e,
// filling that epoch's row of ts.dist.
func (ts *treeScratch) tree(g *topology.Graph, dest topology.NodeID, e int) {
	dist, down := ts.epoch(g, e)
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
			if down[a.trunk] {
				continue
			}
			if nd := d + a.cost; nd < dist[a.from] {
				dist[a.from] = nd
				heap = pushKey(heap, nd<<nodeBits|int64(a.from))
			}
		}
	}
}

// line returns v's line toward dest in epoch e, read off that epoch's tree:
// the argmin of linkCost+dist over v's out links, strict < in Graph.Out order
// — ascending LinkID — so ties break to the lowest link ID; noLine at dest
// itself or when unreachable.
func (ts *treeScratch) line(g *topology.Graph, dest topology.NodeID, e int, v topology.NodeID) uint16 {
	dist, down := ts.epoch(g, e)
	if v == dest || dist[v] == infDist {
		return noLine
	}
	best, line := int64(infDist), uint16(noLine)
	for l, lid := range g.Out(v) {
		a := &ts.arcs[lid]
		if down[a.trunk] || dist[a.to] == infDist {
			continue
		}
		if c := a.cost + dist[a.to]; c < best {
			best = c
			line = uint16(l)
		}
	}
	return line
}

// epoch returns epoch e's rows of the distances and the trunk states.
func (ts *treeScratch) epoch(g *topology.Graph, e int) ([]int64, []bool) {
	n, nt := g.NumNodes(), g.NumTrunks()
	return ts.dist[e*n : (e+1)*n], ts.down[e*nt : (e+1)*nt]
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

// epochAt returns the table generation in effect at time t, given a cursor
// hint (the caller's previous epoch) — an O(1) advance on the hot path.
//
// The cursor never rewinds, so correctness rests on a monotone-time
// contract: every call through one cursor must carry a t no earlier than
// any previous call's. The one cursor per shard (shardState.epoch) is
// advanced only with that shard's own kernel time, which is monotone by
// the DES invariant — across barrier windows too, since windows only ever
// extend a shard's clock forward. A reroute decision therefore reads the
// table generation of its forwarding instant, never of the (possibly
// earlier) enqueue instant, which is exactly internal/network's behavior
// of consulting live tables at forward time. The adaptive plane has neither
// the cursor nor these tables (adaptive.go). TestEpochCursor pins the
// contract against a brute-force scan.
func (r *routing) epochAt(hint int, t sim.Time) int {
	for hint+1 < len(r.epochs) && r.epochs[hint+1] <= t {
		hint++
	}
	return hint
}

// record returns the offset in rec of from's record toward dst, or -1 when
// dst's closure does not hold from.
func (r *routing) record(from, dst topology.NodeID) int {
	lo, size := int(r.base[from]), int(r.base[from+1]-r.base[from])
	for h := slotOf(uint32(dst), size); ; {
		k := (lo + h) * r.w
		switch r.rec[k] {
		case uint32(dst) + 1:
			return k
		case 0:
			return -1
		}
		if h++; h == size {
			h = 0
		}
	}
}

// nextLine returns the line node from should forward on toward dst in the
// given epoch — an index into its out-links, as a tree's NextLine is on the
// adaptive plane — or noLine when dst is unreachable. A lookup the closure
// does not hold is a routing bug, never "no route": it panics.
func (r *routing) nextLine(epoch int, dst, from topology.NodeID) uint16 {
	k := r.record(from, dst)
	if k < 0 {
		panic(fmt.Sprintf("shard: no static route from node %d toward %d: outside that destination's closure", from, dst))
	}
	return uint16(r.rec[k+1+epoch/2] >> (16 * (epoch & 1)))
}

// RouteStats sizes the static plane's route table.
type RouteStats struct {
	Epochs     int   // table generations: one, and one per distinct fault time
	Entries    int   // (node, destination) pairs kept, each with a line per epoch
	Bytes      int64 // the table: epoch times, per-node offsets and records
	DenseBytes int64 // 2·D·N·E: a line for every node toward every one of D destinations in every epoch
}

// RouteStats returns the static route table's size (zero on the adaptive
// plane). It depends on the configuration alone and enters no Report, trace
// or digest.
func (s *Sim) RouteStats() RouteStats {
	r := s.routes
	if r == nil {
		return RouteStats{}
	}
	n, ne := len(r.base)-1, len(r.epochs)
	return RouteStats{
		Epochs:     ne,
		Entries:    r.entries,
		Bytes:      int64(8*ne + 4*(len(r.base)+len(r.rec))),
		DenseBytes: 2 * int64(r.dests) * int64(n) * int64(ne),
	}
}

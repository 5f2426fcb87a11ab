package shard

// Static per-epoch routing for the sharded runner (v1 scope): next-hop
// tables are computed up front by reverse Dijkstra over a fixed link cost,
// one table generation ("epoch") per distinct fault time. Every shard reads
// the same precomputed tables, and each advances a private epoch cursor off
// its own clock, so routing adds no cross-shard communication and no
// nondeterminism. An entry is a line number of the forwarding node — which of
// its own lines, §2.2 — so both planes forward on lnode.out[line] and the table
// costs 2·D·N bytes an epoch for D destinations. Config.Adaptive replaces these
// tables with the measurement-driven plane of adaptive.go.
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

const infDist = math.MaxInt64

type routing struct {
	n       int
	epochs  []sim.Time // ascending; epochs[0] == 0
	destOrd []int32    // by NodeID; ordinal into dests, -1 if not a destination
	dests   []topology.NodeID
	next    [][]uint16 // [epoch][ord*n + node] = the node's line, its index in Graph.Out(node) and lnode.out; noLine unreachable
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
	arcs []arc // per link
	down []bool
	dist []int64
	heap []int64 // (dist, node) keys, emptied by every tree
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

// buildRouting computes the per-epoch next-hop tables for every node that
// appears as a traffic destination. Destinations are registered later via
// addDest; Finalize runs the Dijkstra sweeps.
func buildRouting(g *topology.Graph, faults []Fault) *routing {
	r := &routing{n: g.NumNodes()}
	r.destOrd = make([]int32, r.n)
	for i := range r.destOrd {
		r.destOrd[i] = -1
	}
	r.epochs = append(r.epochs, 0)
	for _, f := range faults {
		dup := false
		for _, e := range r.epochs {
			if e == f.At {
				dup = true
				break
			}
		}
		if !dup {
			r.epochs = append(r.epochs, f.At)
		}
	}
	for i := 1; i < len(r.epochs); i++ {
		for j := i; j > 0 && r.epochs[j] < r.epochs[j-1]; j-- {
			r.epochs[j], r.epochs[j-1] = r.epochs[j-1], r.epochs[j]
		}
	}
	return r
}

// addDest registers a destination node. Must precede finalize.
func (r *routing) addDest(d topology.NodeID) {
	if r.destOrd[d] >= 0 {
		return
	}
	r.destOrd[d] = int32(len(r.dests))
	r.dests = append(r.dests, d)
}

// finalize computes every (epoch, destination) shortest-path tree.
func (r *routing) finalize(g *topology.Graph, faults []Fault) {
	ts := treeScratch{
		arcs: make([]arc, g.NumLinks()),
		down: make([]bool, g.NumTrunks()),
		dist: make([]int64, r.n),
		heap: make([]int64, 0, r.n),
	}
	for i, l := range g.Links() {
		ts.arcs[i] = arc{cost: int64(linkCost(l)), from: int32(l.From), to: int32(l.To), trunk: int32(l.Trunk)}
	}
	r.next = make([][]uint16, len(r.epochs))
	for e := range r.epochs {
		// Trunk state at this epoch: replay the fault script through the
		// epoch time, later entries in config order winning ties.
		clear(ts.down)
		for _, f := range faults {
			if f.At <= r.epochs[e] {
				ts.down[f.Trunk] = !f.Up
			}
		}
		tab := make([]uint16, len(r.dests)*r.n)
		for ord, d := range r.dests {
			ts.tree(g, d, tab[ord*r.n:(ord+1)*r.n])
		}
		r.next[e] = tab
	}
}

// tree runs one reverse Dijkstra to dest over up trunks and fills out[v]
// with v's line toward dest (noLine at dest itself or when unreachable). The
// line is the argmin of linkCost+dist over v's out links, strict < in
// Graph.Out order — ascending LinkID — so ties break to the lowest link ID.
func (ts *treeScratch) tree(g *topology.Graph, dest topology.NodeID, out []uint16) {
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
			if ts.down[a.trunk] {
				continue
			}
			if nd := d + a.cost; nd < dist[a.from] {
				dist[a.from] = nd
				heap = pushKey(heap, nd<<nodeBits|int64(a.from))
			}
		}
	}
	ts.heap = heap // keep what it grew to
	for v := range out {
		out[v] = noLine
		if topology.NodeID(v) == dest || dist[v] == infDist {
			continue
		}
		best := int64(infDist)
		for line, lid := range g.Out(topology.NodeID(v)) {
			a := &ts.arcs[lid]
			if ts.down[a.trunk] || dist[a.to] == infDist {
				continue
			}
			if c := a.cost + dist[a.to]; c < best {
				best = c
				out[v] = uint16(line)
			}
		}
	}
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
// of consulting live tables at forward time. Adaptive mode bypasses the
// cursor and these tables entirely (adaptive.go). TestEpochCursor pins the
// contract against a brute-force scan.
func (r *routing) epochAt(hint int, t sim.Time) int {
	for hint+1 < len(r.epochs) && r.epochs[hint+1] <= t {
		hint++
	}
	return hint
}

// nextLine returns the line node from should forward on toward dst in the
// given epoch — an index into its out-links, as a tree's NextLine is on the
// adaptive plane — or noLine when dst is unreachable.
func (r *routing) nextLine(epoch int, dst, from topology.NodeID) uint16 {
	ord := r.destOrd[dst]
	if ord < 0 {
		return noLine
	}
	return r.next[epoch][int(ord)*r.n+int(from)]
}

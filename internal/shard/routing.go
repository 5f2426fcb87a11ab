package shard

// Static per-epoch routing for the sharded runner (v1 scope): next-hop
// tables are computed up front by reverse Dijkstra over a fixed link cost,
// one table generation ("epoch") per distinct fault time. Every shard reads
// the same precomputed tables, and each advances a private epoch cursor off
// its own clock, so routing adds no cross-shard communication and no
// nondeterminism. Config.Adaptive replaces these tables with the
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

const infDist = math.MaxInt64

type routing struct {
	n       int
	epochs  []sim.Time // ascending; epochs[0] == 0
	destOrd []int32    // by NodeID; ordinal into dests, -1 if not a destination
	dests   []topology.NodeID
	cost    []sim.Time // per link: prop + mean transmission + processing, >= 1 tick
	next    [][]int32  // [epoch][ord*n + node] = LinkID, -1 unreachable
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
	r.cost = make([]sim.Time, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		r.cost[i] = linkCost(g.Link(topology.LinkID(i)))
	}
	down := make([]bool, g.NumTrunks())
	dist := make([]int64, r.n)
	r.next = make([][]int32, len(r.epochs))
	for e := range r.epochs {
		// Trunk state at this epoch: replay the fault script through the
		// epoch time, later entries in config order winning ties.
		for i := range down {
			down[i] = false
		}
		for _, f := range faults {
			if f.At <= r.epochs[e] {
				down[f.Trunk] = !f.Up
			}
		}
		tab := make([]int32, len(r.dests)*r.n)
		for ord, d := range r.dests {
			r.tree(g, down, dist, d, tab[ord*r.n:(ord+1)*r.n])
		}
		r.next[e] = tab
	}
}

// tree runs one reverse Dijkstra to dest over up trunks and fills out[v]
// with v's next-hop LinkID toward dest (-1 at dest itself or when
// unreachable). The next hop is the argmin of linkCost+dist over v's out
// links, strict < with ascending LinkID scan, so ties break to the lowest
// link ID.
func (r *routing) tree(g *topology.Graph, down []bool, dist []int64, dest topology.NodeID, out []int32) {
	for i := range dist {
		dist[i] = infDist
	}
	dist[dest] = 0
	heap := []int64{int64(dest)}
	push := func(key int64) {
		heap = append(heap, key)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int64 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	for len(heap) > 0 {
		key := pop()
		d := key >> nodeBits
		v := topology.NodeID(key & (1<<nodeBits - 1))
		if d > dist[v] {
			continue // stale heap entry
		}
		for _, lid := range g.In(v) {
			l := g.Link(lid)
			if down[l.Trunk] {
				continue
			}
			if nd := d + int64(r.cost[lid]); nd < dist[l.From] {
				dist[l.From] = nd
				push(nd<<nodeBits | int64(l.From))
			}
		}
	}
	for v := 0; v < r.n; v++ {
		out[v] = -1
		if topology.NodeID(v) == dest || dist[v] == infDist {
			continue
		}
		best := int64(infDist)
		for _, lid := range g.Out(topology.NodeID(v)) {
			l := g.Link(lid)
			if down[l.Trunk] || dist[l.To] == infDist {
				continue
			}
			if c := int64(r.cost[lid]) + dist[l.To]; c < best {
				best = c
				out[v] = int32(lid)
			}
		}
	}
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

// nextHop returns the LinkID node from should forward on toward dst in the
// given epoch, or -1 when dst is unreachable.
func (r *routing) nextHop(epoch int, dst, from topology.NodeID) topology.LinkID {
	ord := r.destOrd[dst]
	if ord < 0 {
		return -1
	}
	return topology.LinkID(r.next[epoch][int(ord)*r.n+int(from)])
}

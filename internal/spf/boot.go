package spf

import (
	"math"

	"repro/internal/topology"
)

// A PSN computes its SPF tree from scratch once, at boot, and afterwards only
// repairs it (§2.2), so the Dijkstras NewTable runs, one per router, are the
// table's whole from-scratch cost. They run on Dial's bucket queue (Dial 1969,
// CACM Algorithm 360) and must yield exactly the tree the binary heap of
// Workspace.dijkstra yields, distances, parent lines and first lines alike:
//
//   - A bucket is half as wide as the cheapest link, so every relaxation lands
//     at least one bucket past the node it leaves (the half is the margin for
//     rounding). A node's distance is therefore final once its bucket is
//     reached, whatever order the bucket is scanned in.
//   - Both queues take the first relaxation offering a node its final
//     distance. The order within a bucket can only matter where two offers
//     to one node are exactly equal, so the first equal offer abandons the
//     root and the heap computes its tree instead.
//   - A cost spread too wide for a ring of maxRing buckets sends every root
//     to the heap. The bound also keeps a distance within N·maxRing bucket
//     widths, so a bucket index stays exact in a float64 and an int, and
//     keeps a link's cost from vanishing into a distance it is added to.

// maxRing bounds Dial's ring of buckets: one past the widest relaxation, in
// buckets, rounded up to a power of two. Within it a cost spread of up to
// about 500 boots on buckets.
const maxRing = 1 << 10

// arc is one link in the boot's arc table: its cost, the node it enters and
// the line it enters that node on.
type arc struct {
	cost   float64
	to     int32
	inLine uint16
}

// bootQueue is what every boot Dijkstra of one table reads and reuses: the
// links by tail node in Out order, and Dial's ring of buckets. It lives for
// one NewTable call.
type bootQueue struct {
	first []int32 // by node: its first arc; first[n+1] ends its run
	arcs  []arc
	inv   float64   // buckets per unit of distance: 2 / the cheapest link
	ring  [][]int32 // by bucket modulo len(ring): the nodes queued there
}

// newBootQueue builds the arc table over validated costs, or returns nil
// when their spread needs more than maxRing buckets.
func newBootQueue(g *topology.Graph, costs []float64) *bootQueue {
	lo, hi := math.Inf(1), 0.0
	for _, c := range costs {
		lo, hi = min(lo, c), max(hi, c)
	}
	inv := 2 / lo // 0 without links: every node sits in bucket 0
	if !(hi*inv+3 <= maxRing) {
		return nil
	}
	slots := 1
	for slots < int(hi*inv)+3 {
		slots *= 2
	}
	nn := g.NumNodes()
	q := &bootQueue{first: make([]int32, nn+1), arcs: make([]arc, 0, len(costs)), inv: inv, ring: make([][]int32, slots)}
	for n := 0; n < nn; n++ {
		q.first[n] = int32(len(q.arcs))
		for _, l := range g.Out(topology.NodeID(n)) {
			q.arcs = append(q.arcs, arc{cost: costs[l], to: int32(g.Link(l).To), inLine: uint16(g.InLine(l))})
		}
	}
	q.first[nn] = int32(len(q.arcs))
	return q
}

// bucket is the index of the bucket distance d falls in.
func (q *bootQueue) bucket(d float64) int { return int(d * q.inv) }

// tree computes t's SPF tree into its rows, sized to the graph. It reports
// false, leaving the rows partly written, when two offers tie for a node: the
// heap must settle that root. A nil queue settles none.
func (q *bootQueue) tree(t *Tree) bool {
	if q == nil {
		return false
	}
	root, dist, parent, nextHop := t.root, t.dist, t.parent, t.nextHop
	for i := range dist {
		dist[i] = Infinite
		parent[i] = noLine
		nextHop[i] = noLine
	}
	dist[root] = 0
	mask := len(q.ring) - 1
	q.ring[0] = append(q.ring[0], int32(root))
	for b, queued := 0, 1; queued > 0; b++ {
		slot := &q.ring[b&mask]
		for _, u := range *slot {
			du := dist[u]
			if q.bucket(du) != b {
				continue // an offer has since moved it to an earlier bucket
			}
			fromRoot := topology.NodeID(u) == root
			for i, a := range q.arcs[q.first[u]:q.first[u+1]] {
				d, dv := du+a.cost, dist[a.to]
				if d > dv {
					continue
				}
				if d == dv {
					for i := range q.ring {
						q.ring[i] = q.ring[i][:0]
					}
					return false
				}
				dist[a.to] = d
				parent[a.to] = a.inLine
				if fromRoot {
					nextHop[a.to] = uint16(i)
				} else {
					nextHop[a.to] = nextHop[u]
				}
				if nb := q.bucket(d); dv == Infinite || nb != q.bucket(dv) {
					q.ring[nb&mask] = append(q.ring[nb&mask], a.to)
					queued++
				}
			}
		}
		queued -= len(*slot)
		*slot = (*slot)[:0]
	}
	return true
}

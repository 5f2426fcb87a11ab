package topology

// Network-scale topology generators for the sharded simulator: a
// hierarchical multi-region builder (regions of short intra-region trunks
// joined by long-haul backbone trunks — the shape the conservative-sync
// partitioner exploits, since cutting only backbone trunks maximizes the
// lookahead) and the classic Waxman random graph. Both are deterministic
// for a given seed.

import (
	"fmt"
	"math"
	"math/rand"
)

// Hierarchical builds a multi-region topology of regions×perRegion nodes
// named "R<r>.N<i>". Inside a region, node 0 is a hub carrying a star to
// every other node, the non-hub nodes form a ring, and a few random chords
// are added — all short terrestrial trunks (1–3 ms). Regions are joined by
// a backbone over the hubs: a ring of long-haul trunks plus random hub
// chords, each with 8–25 ms propagation delay. Every inter-region path
// therefore crosses a long-haul trunk, so a partitioner that cuts only
// backbone trunks gets at least 8 ms of conservative lookahead.
func Hierarchical(regions, perRegion int, seed int64) *Graph {
	if regions < 2 {
		panic("topology: Hierarchical needs at least 2 regions")
	}
	if perRegion < 3 {
		panic("topology: Hierarchical needs at least 3 nodes per region")
	}
	r := rand.New(rand.NewSource(seed))
	g := New()
	hub := make([]NodeID, regions)
	ids := make([][]NodeID, regions)
	for reg := 0; reg < regions; reg++ {
		ids[reg] = make([]NodeID, perRegion)
		for i := 0; i < perRegion; i++ {
			ids[reg][i] = g.AddNode(fmt.Sprintf("R%d.N%d", reg, i))
		}
		hub[reg] = ids[reg][0]
	}
	intraType := func() LineType {
		if r.Intn(3) == 0 {
			return T112
		}
		return T56
	}
	intraDelay := func() float64 { return 0.001 + 0.002*r.Float64() }
	for reg := 0; reg < regions; reg++ {
		n := ids[reg]
		for i := 1; i < perRegion; i++ {
			g.AddTrunkDelay(n[0], n[i], intraType(), intraDelay())
		}
		for i := 1; i < perRegion; i++ {
			j := i + 1
			if j == perRegion {
				j = 1
			}
			if i != j {
				if _, dup := g.FindTrunk(n[i], n[j]); !dup {
					g.AddTrunkDelay(n[i], n[j], intraType(), intraDelay())
				}
			}
		}
		for c := 0; c < perRegion/4; c++ {
			a, b := 1+r.Intn(perRegion-1), 1+r.Intn(perRegion-1)
			if a == b {
				continue
			}
			if _, dup := g.FindTrunk(n[a], n[b]); dup {
				continue
			}
			g.AddTrunkDelay(n[a], n[b], intraType(), intraDelay())
		}
	}
	backboneDelay := func() float64 { return 0.008 + 0.017*r.Float64() }
	for reg := 0; reg < regions; reg++ {
		g.AddTrunkDelay(hub[reg], hub[(reg+1)%regions], T50, backboneDelay())
	}
	for c := 0; c < regions/2; c++ {
		a, b := r.Intn(regions), r.Intn(regions)
		if a == b {
			continue
		}
		if _, dup := g.FindTrunk(hub[a], hub[b]); dup {
			continue
		}
		g.AddTrunkDelay(hub[a], hub[b], T50, backboneDelay())
	}
	return g
}

// Waxman builds an n-node Waxman random graph: nodes are placed uniformly
// in the unit square and each pair is joined with probability
// alpha·exp(−d/(beta·L)), d the Euclidean distance and L the square's
// diameter. Disconnected components are then stitched together by their
// geometrically closest node pairs (deterministic smallest-distance,
// lowest-ID tie-break), so the result is always connected. Propagation
// delay is distance-proportional (1 ms at zero distance up to ~21 ms across
// the diagonal); line types are drawn from lts (all T56 if empty).
func Waxman(n int, alpha, beta float64, seed int64, lts ...LineType) *Graph {
	if n < 2 {
		panic("topology: Waxman needs at least 2 nodes")
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		panic("topology: Waxman needs 0 < alpha <= 1 and beta > 0")
	}
	if len(lts) == 0 {
		lts = []LineType{T56}
	}
	r := rand.New(rand.NewSource(seed))
	g := New()
	x := make([]float64, n)
	y := make([]float64, n)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("N%d", i))
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	dist := func(i, j int) float64 {
		return math.Hypot(x[i]-x[j], y[i]-y[j])
	}
	diag := math.Sqrt2
	delay := func(d float64) float64 { return 0.001 + 0.014*d }
	pick := func() LineType { return lts[r.Intn(len(lts))] }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dist(i, j)
			if r.Float64() < alpha*math.Exp(-d/(beta*diag)) {
				g.AddTrunkDelay(ids[i], ids[j], pick(), delay(d))
			}
		}
	}
	// Stitch components: repeatedly join the two closest nodes in different
	// components. Component labels come from a deterministic flood fill;
	// ties on distance break toward the lowest node-ID pair, compared with
	// strict inequalities only.
	for {
		comp := Components(g, nil)
		bi, bj := -1, -1
		var bd float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := dist(i, j); bi < 0 || d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			return g
		}
		g.AddTrunkDelay(ids[bi], ids[bj], pick(), delay(bd))
	}
}

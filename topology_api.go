package arpanet

import (
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Topology is a network of PSNs joined by bidirectional trunks. Build one
// with NewTopology/AddNode/AddTrunk or use a canned builder
// (Arpanet1987, TwoRegion, Ring). Topologies are immutable once a
// run or an Analysis is built from them.
type Topology struct {
	g *topology.Graph
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{g: topology.New()} }

// AddNode adds a PSN with a unique, non-empty name.
func (t *Topology) AddNode(name string) { t.g.AddNode(name) }

// AddTrunk joins two named PSNs with a bidirectional trunk of the given
// kind and one-way propagation delay in seconds (pass a negative delay to
// use the kind's default: 10 ms terrestrial, 260 ms satellite).
func (t *Topology) AddTrunk(a, b string, kind LineKind, propDelaySeconds float64) {
	if propDelaySeconds < 0 {
		propDelaySeconds = kind.lt().DefaultPropDelay()
	}
	t.g.AddTrunkDelay(t.g.MustLookup(a), t.g.MustLookup(b), kind.lt(), propDelaySeconds)
}

// Nodes returns the PSN names in creation order.
func (t *Topology) Nodes() []string {
	names := make([]string, 0, t.g.NumNodes())
	for _, n := range t.g.Nodes() {
		names = append(names, n.Name)
	}
	return names
}

// NumNodes returns the number of PSNs.
func (t *Topology) NumNodes() int { return t.g.NumNodes() }

// NumTrunks returns the number of bidirectional trunks.
func (t *Topology) NumTrunks() int { return t.g.NumTrunks() }

// Trunks returns human-readable labels for every trunk, sorted.
func (t *Topology) Trunks() []string { return t.g.TrunkNames() }

// Arpanet1987 returns the synthetic ARPANET-like topology used by the
// Table 1 and Figure 7-13 reproductions: 30 PSNs, 44 trunks, mixed
// 9.6/56 kb/s terrestrial and satellite lines. (The paper's real July 1987
// map is not published; see DESIGN.md for the substitution rationale.)
func Arpanet1987() *Topology { return &Topology{g: topology.Arpanet()} }

// ArpanetWeights returns the per-site traffic weights that pair with
// Arpanet1987 for GravityTraffic.
func ArpanetWeights() map[string]float64 { return topology.ArpanetWeights() }

// Milnet1987 returns the synthetic MILNET-like topology: 26 nodes and 36
// trunks with a heavier share of slow (9.6/19.2 kb/s) tails, several
// satellite hops and 112 kb/s multi-trunk backbone lines — the §4.4
// heterogeneity the metric's normalization was tuned for. The paper's
// companion study (BBN Report 6719) measured the metric on the real
// MILNET; see DESIGN.md for the substitution.
func Milnet1987() *Topology { return &Topology{g: topology.Milnet()} }

// MilnetWeights returns the per-site traffic weights that pair with
// Milnet1987 for GravityTraffic.
func MilnetWeights() map[string]float64 { return topology.MilnetWeights() }

// TwoRegion returns the Figure 1 topology: two regions of n PSNs joined by
// exactly two parallel trunks of the given kind. Node names are W0..Wn-1
// and E0..En-1; inter-region trunk A joins W0-E0 and trunk B joins W1-E1.
func TwoRegion(n int, interRegion LineKind) *Topology {
	g, _, _ := topology.TwoRegion(n, interRegion.lt())
	return &Topology{g: g}
}

// Ring returns an n-node cycle of the given kind.
func Ring(n int, kind LineKind) *Topology {
	return &Topology{g: topology.Ring(n, kind.lt())}
}

// Grid returns a w×h mesh of the given kind with nodes named "Rr.Cc".
func Grid(w, h int, kind LineKind) *Topology {
	return &Topology{g: topology.Grid(w, h, kind.lt())}
}

// Random returns a connected random topology with the given average
// degree, deterministic for a seed.
func Random(n int, avgDegree float64, seed int64, kinds ...LineKind) *Topology {
	lts := make([]topology.LineType, len(kinds))
	for i, k := range kinds {
		lts[i] = k.lt()
	}
	return &Topology{g: topology.Random(n, avgDegree, seed, lts...)}
}

// Traffic is a node-to-node offered-load matrix in bits per second.
type Traffic struct {
	t *Topology
	m *traffic.Matrix
}

// NewTraffic returns an all-zero matrix for the topology.
func (t *Topology) NewTraffic() *Traffic {
	return &Traffic{t: t, m: traffic.NewMatrix(t.g.NumNodes())}
}

// UniformTraffic spreads totalBPS evenly over all ordered PSN pairs.
func (t *Topology) UniformTraffic(totalBPS float64) *Traffic {
	return &Traffic{t: t, m: traffic.Uniform(t.g, totalBPS)}
}

// GravityTraffic builds a gravity-model matrix: pair rates proportional to
// the product of endpoint weights (1 for unnamed nodes), totalling
// totalBPS.
func (t *Topology) GravityTraffic(weights map[string]float64, totalBPS float64) *Traffic {
	return &Traffic{t: t, m: traffic.Gravity(t.g, weights, totalBPS)}
}

// HotspotTraffic sends frac of totalBPS between the region selected by
// inRegionA (by node name) and the rest of the network, the remainder
// uniformly inside the regions — the Figure 1 workload.
func (t *Topology) HotspotTraffic(inRegionA func(name string) bool, totalBPS, frac float64) *Traffic {
	g := t.g
	return &Traffic{t: t, m: traffic.Hotspot(g, func(id topology.NodeID) bool {
		return inRegionA(g.Node(id).Name)
	}, totalBPS, frac)}
}

// SetRate sets the offered load from one named PSN to another.
func (tr *Traffic) SetRate(src, dst string, bps float64) {
	tr.m.Set(tr.t.g.MustLookup(src), tr.t.g.MustLookup(dst), bps)
}

// Rate returns the offered load from src to dst.
func (tr *Traffic) Rate(src, dst string) float64 {
	return tr.m.Rate(tr.t.g.MustLookup(src), tr.t.g.MustLookup(dst))
}

// TotalBPS returns the network-wide offered load.
func (tr *Traffic) TotalBPS() float64 { return tr.m.Total() }

// Scale multiplies every rate by f and returns the matrix for chaining.
func (tr *Traffic) Scale(f float64) *Traffic {
	tr.m.Scale(f)
	return tr
}

// Clone returns an independent copy of the matrix (same topology).
func (tr *Traffic) Clone() *Traffic { return &Traffic{t: tr.t, m: tr.m.Clone()} }

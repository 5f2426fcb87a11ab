// Package traffic provides node-to-node traffic matrices and the workload
// generators used by the experiments: a gravity-model synthetic "peak hour"
// matrix standing in for the July 1987 measured matrix (see DESIGN.md),
// uniform matrices, and helpers to scale a matrix to a target offered load.
//
// A Matrix entry Rate(s, d) is the offered load from PSN s to PSN d in
// bits per second of user data.
package traffic

import (
	"fmt"

	"repro/internal/topology"
)

// Matrix is a node-to-node offered-load matrix in bits per second.
type Matrix struct {
	n    int
	rate []float64 // n×n, row-major, diagonal zero
}

// NewMatrix returns an all-zero matrix for n nodes.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("traffic: matrix size must be positive")
	}
	return &Matrix{n: n, rate: make([]float64, n*n)}
}

// NumNodes returns the matrix dimension.
func (m *Matrix) NumNodes() int { return m.n }

// Rate returns the offered load from s to d in bits/second.
func (m *Matrix) Rate(s, d topology.NodeID) float64 {
	return m.rate[int(s)*m.n+int(d)]
}

// Set assigns the offered load from s to d. Self-traffic must be zero.
func (m *Matrix) Set(s, d topology.NodeID, bps float64) {
	if s == d && bps != 0 {
		panic("traffic: self-traffic must be zero")
	}
	if bps < 0 {
		panic("traffic: negative rate")
	}
	m.rate[int(s)*m.n+int(d)] = bps
}

// Row returns the offered loads from s, indexed by destination. The caller
// must not modify it.
func (m *Matrix) Row(s topology.NodeID) []float64 {
	return m.rate[int(s)*m.n : (int(s)+1)*m.n]
}

// Total returns the network-wide offered load in bits/second.
func (m *Matrix) Total() float64 {
	sum := 0.0
	for _, r := range m.rate {
		sum += r
	}
	return sum
}

// Pairs calls fn for every source-destination pair with a positive rate,
// in deterministic (row-major) order.
func (m *Matrix) Pairs(fn func(s, d topology.NodeID, bps float64)) {
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			if r := m.rate[s*m.n+d]; r > 0 {
				fn(topology.NodeID(s), topology.NodeID(d), r)
			}
		}
	}
}

// Scale multiplies every entry by f and returns m for chaining.
func (m *Matrix) Scale(f float64) *Matrix {
	if f < 0 {
		panic("traffic: negative scale factor")
	}
	for i := range m.rate {
		m.rate[i] *= f
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.rate, m.rate)
	return c
}

// Uniform builds a matrix in which every ordered pair carries the same
// rate, totalling total bits/second network-wide.
func Uniform(g *topology.Graph, total float64) *Matrix {
	n := g.NumNodes()
	m := NewMatrix(n)
	pairs := float64(n * (n - 1))
	if pairs == 0 {
		return m
	}
	per := total / pairs
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				m.Set(topology.NodeID(s), topology.NodeID(d), per)
			}
		}
	}
	return m
}

// Gravity builds a gravity-model matrix: the rate from s to d is
// proportional to weight(s)·weight(d), normalized so the network-wide total
// equals total bits/second. Nodes missing from weights get weight 1.
// The paper's traffic "consists of several small node-to-node flows"
// (§4.5); a gravity matrix has exactly that many-small-flows structure.
func Gravity(g *topology.Graph, weights map[string]float64, total float64) *Matrix {
	n := g.NumNodes()
	m := NewMatrix(n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = 1
		if v, ok := weights[g.Node(topology.NodeID(i)).Name]; ok {
			if v <= 0 {
				panic(fmt.Sprintf("traffic: non-positive weight for %q", g.Node(topology.NodeID(i)).Name))
			}
			w[i] = v
		}
	}
	sum := 0.0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				sum += w[s] * w[d]
			}
		}
	}
	if sum == 0 {
		return m
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				m.Set(topology.NodeID(s), topology.NodeID(d), total*w[s]*w[d]/sum)
			}
		}
	}
	return m
}

// Hotspot builds a matrix where frac of the total load flows between the
// two named regions (split uniformly over cross-region pairs) and the rest
// uniformly over all remaining pairs. Used by the Figure 1 oscillation
// experiment to load the inter-region cut.
func Hotspot(g *topology.Graph, inRegionA func(topology.NodeID) bool, total, frac float64) *Matrix {
	if frac < 0 || frac > 1 {
		panic("traffic: frac must be in [0,1]")
	}
	n := g.NumNodes()
	m := NewMatrix(n)
	var cross, local int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if inRegionA(topology.NodeID(s)) != inRegionA(topology.NodeID(d)) {
				cross++
			} else {
				local++
			}
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			sid, did := topology.NodeID(s), topology.NodeID(d)
			if inRegionA(sid) != inRegionA(did) {
				if cross > 0 {
					m.Set(sid, did, total*frac/float64(cross))
				}
			} else if local > 0 {
				m.Set(sid, did, total*(1-frac)/float64(local))
			}
		}
	}
	return m
}

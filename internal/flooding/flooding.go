// Package flooding implements the routing-update distribution mechanism of
// the 1979 SPF algorithm (Rosen's updating protocol, paper reference [13]):
// each PSN's update — carrying only that PSN's own link costs — is flooded
// to every node. A PSN forwards a newly seen update on all links except the
// one it arrived on; duplicates are recognized by (origin, sequence number)
// and dropped.
//
// The package provides the update format (immutable once made, so PSNs share
// an accepted update by reference), its wire-size accounting (routing
// updates consume trunk bandwidth — one of the §3.3 costs of D-SPF), and a
// per-node duplicate filter. Delivery timing lives in the engines, which
// move updates over the simulated trunks at high priority.
package flooding

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// Wire-size accounting for a routing update, in bits. The 1979 update
// carried the origin's identity, a sequence number, and one (link, cost)
// entry per outgoing link of the origin.
const (
	HeaderBits  = 128 // origin, sequence number, checksums, framing
	PerLinkBits = 32  // link identity + 16-bit cost
)

// Update is one routing update: the origin PSN's current reported costs
// for its outgoing links. "Routing updates contain only link cost
// information; no other routing information is disseminated" (§2.2).
type Update struct {
	Origin topology.NodeID
	Seq    uint64
	Links  []topology.LinkID
	Costs  []float64

	seal uint64 // digest of the four fields above as NewUpdate published them
}

// NewUpdate builds an update after validating its shape and costs. It is the
// one place an update is made, and an update is immutable afterwards (both
// slices are retained, never written), so no PSN accepting it re-validates.
// Every PSN, on every shard, shares the one pointer; the seal lets an audit
// tell that none of them wrote through it (Intact).
func NewUpdate(origin topology.NodeID, seq uint64, links []topology.LinkID, costs []float64) *Update {
	if len(links) != len(costs) {
		panic("flooding: links/costs length mismatch")
	}
	for i, c := range costs {
		if !(c > 0) || math.IsInf(c, 1) { // !(c > 0) is true for NaN
			panic(fmt.Sprintf("flooding: update from node %d carries cost %v for link %d; costs must be positive and finite",
				origin, c, links[i]))
		}
	}
	u := &Update{Origin: origin, Seq: seq, Links: links, Costs: costs}
	u.seal = u.digest()
	return u
}

// digest folds origin, sequence number, links and cost bits FNV-style, a
// word at a time: each step is a bijection of the running value, so no
// change to a single word goes unseen.
func (u *Update) digest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(u.Origin))
	mix(u.Seq)
	for _, l := range u.Links {
		mix(uint64(l))
	}
	for _, c := range u.Costs {
		mix(math.Float64bits(c))
	}
	return h
}

// Intact reports whether u still reads exactly as NewUpdate published it.
// The audits of both engines ask it of every update a router holds.
func (u *Update) Intact() bool { return u.seal == u.digest() }

// SizeBits returns the update's wire size.
func (u *Update) SizeBits() float64 {
	return float64(HeaderBits + PerLinkBits*len(u.Links))
}

// Dedup is one PSN's duplicate filter: the highest sequence number accepted
// from each origin. Sequence numbers are monotone per origin (the real
// protocol's 6-bit wrap-around and its lost-update recovery are out of
// scope; our 64-bit numbers never wrap in a simulation). Neither engine runs
// it: a router's database is the updates it accepted, sequence numbers
// included, so spf.IncrementalRouter.Accept is its own filter. The repo
// benchmark still times it.
type Dedup struct {
	seen []uint64
	any  []bool
}

// NewDedup creates a filter for a network of n nodes.
func NewDedup(n int) *Dedup {
	if n <= 0 {
		panic("flooding: dedup size must be positive")
	}
	return &Dedup{seen: make([]uint64, n), any: make([]bool, n)}
}

// Accept reports whether the (origin, seq) pair is new — i.e. the update
// should be processed and forwarded — and records it if so. Old and
// duplicate sequence numbers return false.
func (d *Dedup) Accept(origin topology.NodeID, seq uint64) bool {
	if d.any[origin] && seq <= d.seen[origin] {
		return false
	}
	d.any[origin] = true
	d.seen[origin] = seq
	return true
}

// Last returns the highest sequence number accepted from origin and
// whether any update from it has been seen.
func (d *Dedup) Last(origin topology.NodeID) (uint64, bool) {
	return d.seen[origin], d.any[origin]
}

// ForwardLinks returns the links an update arriving at node via arrival
// should be forwarded on: every outgoing link except the reverse of the
// arrival link. Pass NoLink for locally originated updates (forwarded on
// every link). The returned slice is freshly allocated; hot paths use
// AppendForwardLinks with a reusable buffer instead.
func ForwardLinks(g *topology.Graph, node topology.NodeID, arrival topology.LinkID) []topology.LinkID {
	return AppendForwardLinks(nil, g, node, arrival)
}

// AppendForwardLinks appends the forward links to dst (usually dst[:0] of a
// per-PSN scratch buffer) and returns it, allocating only on growth.
// Allocates: appends into the caller's reusable scratch; growth is amortized to node degree
func AppendForwardLinks(dst []topology.LinkID, g *topology.Graph, node topology.NodeID, arrival topology.LinkID) []topology.LinkID {
	var skip topology.LinkID = topology.NoLink
	if arrival != topology.NoLink {
		skip = g.Link(arrival).Reverse()
	}
	for _, l := range g.Out(node) {
		if l != skip {
			dst = append(dst, l)
		}
	}
	return dst
}

// Sequencer hands out monotonically increasing sequence numbers for one
// origin, starting at 1.
type Sequencer struct {
	next uint64
}

// Next returns the next sequence number.
func (s *Sequencer) Next() uint64 {
	s.next++
	return s.next
}

package shard

// Deterministic merged tracing. Each node stamps its records with a private
// per-node sequence number in its own event order (which the package doc
// argues is partition-independent); the merge sorts by (time, node,
// sequence) — a total order, since a node lives in exactly one shard — and
// renders with fixed formats. The rendered text is therefore byte-identical
// for every shard count.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

type recKind uint8

const (
	recBufferDrop recKind = iota
	recNoRouteDrop
	recLoopDrop
	recOutageDrop
	recLinkDown
	recLinkUp
	recMeasure
	recOriginate // adaptive: node flooded a routing update
	recReroute   // adaptive: an applied update changed sampled next hops
)

func (k recKind) String() string {
	switch k {
	case recBufferDrop:
		return "drop-buffer"
	case recNoRouteDrop:
		return "drop-noroute"
	case recLoopDrop:
		return "drop-loop"
	case recOutageDrop:
		return "drop-outage"
	case recLinkDown:
		return "link-down"
	case recLinkUp:
		return "link-up"
	case recMeasure:
		return "meas"
	case recOriginate:
		return "originate"
	case recReroute:
		return "reroute"
	default:
		return fmt.Sprintf("rec(%d)", uint8(k))
	}
}

// rec is one trace record, 64 bytes of node-local observation.
type rec struct {
	at    sim.Time
	node  topology.NodeID
	seq   uint32 // per-node record sequence, assigned in node event order
	kind  recKind
	link  topology.LinkID
	pkt   uint64  // packet Seq for drop records
	count int64   // packets measured (recMeasure)
	avg   float64 // measured average delay, seconds (recMeasure)
	cost  float64 // advertised cost after update (recMeasure)
}

// TraceText renders the merged trace of every shard. Safe to call between
// Run invocations only.
func (s *Sim) TraceText() string {
	var all []rec
	for _, sh := range s.shards {
		all = append(all, sh.recs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.seq < b.seq
	})
	var b strings.Builder
	for i := range all {
		r := &all[i]
		fmt.Fprintf(&b, "%s %s %s link=%d", r.at, s.g.Node(r.node).Name, r.kind, r.link)
		switch r.kind {
		case recMeasure:
			fmt.Fprintf(&b, " n=%d avg=%.9f cost=%.6g", r.count, r.avg, r.cost)
		case recLinkDown, recLinkUp:
			// state change only
		case recOriginate:
			fmt.Fprintf(&b, " seq=%d links=%d", r.pkt, r.count)
		case recReroute:
			fmt.Fprintf(&b, " origin=%d seq=%d changed=%d", r.pkt>>32, r.pkt&0xffffffff, r.count)
		default:
			fmt.Fprintf(&b, " pkt=%#016x", r.pkt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

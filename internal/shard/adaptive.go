package shard

// The adaptive routing plane: measurement → cost module → flooded update →
// per-node incremental SPF, or under BF-1969 the vector exchange. The pieces
// are the ones internal/network wires up — node.Trunk for measurement and
// advertised cost, node.PSN for the protocol (node.Boot, Tick, Hear,
// LineChanged, NextLine), flooding for update payloads, spf.Table for the
// routers, whose link-state database is the set of updates each accepted —
// driven here under the shard model's determinism rules. What stays here is
// this engine's side of them, the shard's node.Egress: control sequence
// numbers, the custody ledger and trace sampling.
//
// Routing updates are just more packets: they ride the output queues at
// head priority, consume trunk bandwidth, arrive as the same link-keyed tail
// events, and cross shard boundaries on the wires under the same hop-latency
// lookahead bound as user traffic — an update generated inside a window can
// only arrive at a remote shard at or after the window's end plus the cut's
// minimum hop latency, so the conservative barrier needs no new machinery
// (cf. DESIGN.md "Adaptive routing through the barrier").
//
// Determinism by construction carries over untouched:
//
//   - an update's payload (*flooding.Update) is immutable after NewUpdate,
//     so sharing the pointer across the barrier is value semantics: the
//     importing shard reads exactly the bytes any partitioning would read
//     (the workers' done and deadline channel operations order the write
//     before every read),
//     and a router that accepts it keeps the pointer as its database row,
//     still only reading;
//   - origination, accepting an update and rerouting are all node-local
//     state transitions driven by the node's own event order;
//   - forwarded copies are new packets enqueued on the forwarding node's own
//     out-links, so the ≥1-tick transmission delay separates every
//     cross-node consequence from the event that caused it, exactly as for
//     user packets.
//
// The static table of routing.go remains the default; Adaptive is opt-in so
// the committed static golden trace and the lean-data-plane benchmark keep
// their meaning. Faults need Adaptive: only flooded updates tell a PSN of a
// line's state.

import (
	"fmt"
	"math"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// ctrlSeqBit marks a packet sequence number as control-plane (an update
// copy): bit 63 set, then the enqueueing node's ID and its private control
// counter. User packets use id<<32|pseq with bit 63 clear, so the two
// spaces never collide and a drop record names its class.
const ctrlSeqBit = uint64(1) << 63

// boot puts every node on its routing protocol (node.Boot), the nodes of
// each shard on a table of their own, since a table's routers share repair
// scratch and a shard's nodes are exactly the ones its goroutine drives.
// Every router starts from the identical initial cost database (each
// trunk's link-up cost), as in internal/network. On the static plane the
// nodes only measure.
func (s *Sim) boot() {
	trunk := func(l topology.LinkID) *node.Trunk { return &s.linkAt[l].Trunk }
	for _, sh := range s.shards {
		psns := make([]*node.PSN, len(sh.nodes))
		for i, n := range sh.nodes {
			psns[i] = &n.PSN
		}
		sh.routers, sh.updatesInFlight = node.Boot(s.cfg.Metric, s.cfg.Adaptive, s.g, psns, trunk, s.cfg.MeasurePeriod)
	}
}

// RoutingStats sums the routing-plane counters of every shard's routers (zero
// without Config.Adaptive). Every update copy consumed or originated was
// offered to a router exactly once: Accepted + Duplicates == CtrlConsumed +
// Originated. Call it between Run invocations; it enters no Report or trace.
func (s *Sim) RoutingStats() spf.TableStats {
	var st spf.TableStats
	for _, sh := range s.shards {
		if sh.routers != nil {
			st = st.Plus(sh.routers.Stats())
		}
	}
	return st
}

// handleRouting consumes one arriving routing packet: n hears it
// (node.PSN.Hear), and the carrying packet dies here; forwarded copies are
// fresh packets sharing the immutable payload.
func (sh *shardState) handleRouting(n *lnode, p *node.Packet, now sim.Time) {
	sh.led.CtrlConsumed++
	sh.updatesInFlight.Remove(p)
	n.Hear(sh.s.g, sh, p, now)
	sh.pool.Put(p)
}

// The shard's node.Egress: Send and SendVector put a routing packet on one of
// the shard's links, Accept and Originated trace a sampled node's reroutes and
// originations, and Measured its metric readings.

// Send enqueues one copy of u on link l, one of this shard's.
func (sh *shardState) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	sh.updatesInFlight.Add(u)
	sh.sendRouting(l, u, nil, u.SizeBits(), created, now)
}

// SendVector enqueues v on link l, one of this shard's.
func (sh *shardState) SendVector(l topology.LinkID, v *node.Vector, now sim.Time) {
	sh.sendRouting(l, nil, v, v.SizeBits(), now, now)
}

// sendRouting enqueues on link l one routing packet carrying u or v, stamped
// with the sending node's next control sequence number. Routing packets
// head-insert and are never buffer-dropped, so every one is accepted.
func (sh *shardState) sendRouting(l topology.LinkID, u *flooding.Update, v *node.Vector, size float64, created, now sim.Time) {
	ls := sh.s.linkAt[l]
	n := sh.s.nodeAt[ls.l.From]
	if n.cseq == math.MaxUint32 {
		panic(fmt.Sprintf("shard: node %d used all 2^32 control sequence numbers; the next would carry into the origin field of Packet.Seq", n.ID))
	}
	p := sh.pool.Get()
	n.cseq++
	p.Seq = ctrlSeqBit | uint64(n.ID)<<32 | n.cseq
	p.SizeBits, p.Created, p.Enqueued = size, created, now
	p.Update, p.Vector = u, v
	p.Arrival = l // the link this packet will traverse
	ls.Queue.Push(p)
	sh.led.CtrlGenerated++
	sh.startTx(ls, now)
}

// sampled reports whether node id's routing and metric readings are traced
// (Config.MeasureSample).
func (sh *shardState) sampled(id topology.NodeID) bool {
	sample := sh.s.cfg.MeasureSample
	return sample > 0 && int(id)%sample == 0
}

// Originated traces the origination of u at a sampled node.
func (sh *shardState) Originated(p *node.PSN, u *flooding.Update, now sim.Time) {
	if sh.sampled(p.ID) {
		n := sh.s.nodeAt[p.ID]
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recOriginate,
			link: topology.NoLink, pkt: u.Seq, count: int64(len(u.Costs))})
		n.rseq++
	}
}

// Delay is the period average itself: the shard carries every load as
// packets.
func (sh *shardState) Delay(_ topology.LinkID, avg float64) float64 { return avg }

// Measured traces a sampled node's metric reading.
func (sh *shardState) Measured(p *node.PSN, l topology.LinkID, count int64, avg, cost float64, now sim.Time) {
	if sh.sampled(p.ID) {
		n := sh.s.nodeAt[p.ID]
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recMeasure,
			link: l, count: count, avg: avg, cost: cost})
		n.rseq++
	}
}

// Accept offers u to p's router and reports whether it was new. For
// trace-sampled nodes it also diffs the next hops toward the node's own
// destination set around an accepted update and records a reroute event when
// any changed — the observable that pins "the reroute happened here, at this
// instant" into the golden trace.
func (sh *shardState) Accept(p *node.PSN, u *flooding.Update, now sim.Time) bool {
	if !sh.sampled(p.ID) {
		return p.Router.Accept(u)
	}
	n := sh.s.nodeAt[p.ID]
	tree := n.Router.Tree() // repaired in place: snapshot before Accept
	// Allocates: the scratch grows to the most destinations of a sampled node, then reuses
	sh.nhScratch = sh.nhScratch[:0]
	for _, d := range n.src.Dests() {
		sh.nhScratch = append(sh.nhScratch, tree.NextHop(d))
	}
	if !n.Router.Accept(u) {
		return false
	}
	changed := int64(0)
	for i, d := range n.src.Dests() {
		if tree.NextHop(d) != sh.nhScratch[i] {
			changed++
		}
	}
	if changed > 0 {
		// Allocates: the trace record buffer grows amortized; it is never drained (TraceText reads every record)
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recReroute,
			link: topology.NoLink, pkt: uint64(u.Origin)<<32 | (u.Seq & 0xffffffff), count: changed})
		n.rseq++
	}
	return true
}

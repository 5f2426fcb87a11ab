package shard

// The adaptive routing plane: measurement → cost module → flooded update →
// per-node incremental SPF, or under BF-1969 the vector exchange. The pieces
// are the ones internal/network wires up — node.Trunk for measurement and
// advertised cost, node.PSN for the protocol (node.Boot, Tick, Hear,
// LineChanged, NextLine), flooding for update payloads, spf.Table for the
// routers, whose link-state database is the set of updates each accepted —
// driven here under the shard model's determinism rules. What stays here is
// this engine's side of them, the shard's node.Egress: packets on its links
// and the custody ledger.
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
	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

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
		sh.routers, sh.updatesInFlight = node.Boot(s.cfg.Metric, s.cfg.Adaptive, s.cfg.Multipath, s.cfg.Seed, s.g, psns, trunk, s.cfg.MeasurePeriod)
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
// the shard's links; Originated and Delay add nothing, since the shard
// carries every load as packets.

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
// with the sending node's next control sequence number (node.PSN.CtrlSeq).
// Routing packets head-insert and are never buffer-dropped, so every one is
// accepted.
func (sh *shardState) sendRouting(l topology.LinkID, u *flooding.Update, v *node.Vector, size float64, created, now sim.Time) {
	ls := sh.s.linkAt[l]
	p := sh.pool.Get()
	p.Seq = sh.s.nodeAt[ls.l.From].CtrlSeq()
	p.SizeBits, p.Created, p.Enqueued = size, created, now
	p.Update, p.Vector = u, v
	p.Arrival = l // the link this packet will traverse
	ls.Queue.Push(p)
	sh.led.CtrlGenerated++
	sh.startTx(ls, now)
}

// Originated keeps nothing of an origination.
func (sh *shardState) Originated(*node.PSN, *flooding.Update, sim.Time) {}

// Delay is the period average itself: the shard carries every load as
// packets.
func (sh *shardState) Delay(_ topology.LinkID, avg float64) float64 { return avg }

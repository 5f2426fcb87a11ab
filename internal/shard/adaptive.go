package shard

// The adaptive routing plane: measurement → cost module → flooded update →
// per-node incremental SPF. The pieces are the ones internal/network wires
// up — node.Trunk for measurement and advertised cost, node.PSN for
// origination, forwarding, the refresh and the line-up resync, flooding for
// update payloads, spf.Table for the routers, whose link-state database is
// the set of updates each accepted — driven here under the shard model's
// determinism rules. What stays here is this engine's side of them: the
// shard's node.Egress (control sequence numbers, the custody ledger), trace
// sampling, and the measure loop, which internal/network runs with fluid
// superposition.
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

// bootAdaptive builds the per-node routing state: every router starts from
// the identical initial cost database (each module's link-up cost), as in
// internal/network. Each shard gets its own spf.Table, because a table's
// routers share repair scratch and a shard's nodes are exactly the ones its
// goroutine drives.
func (s *Sim) bootAdaptive() {
	initial := make([]float64, s.g.NumLinks())
	for lid, ls := range s.linkAt {
		initial[lid] = ls.Module.Cost()
	}
	for _, sh := range s.shards {
		roots := make([]topology.NodeID, len(sh.nodes))
		for i, n := range sh.nodes {
			roots[i] = n.ID
		}
		sh.routers = spf.NewTable(s.g, roots, initial)
		sh.updatesInFlight = make([]int, s.g.NumNodes())
		for i, n := range sh.nodes {
			n.Router = sh.routers.Router(i)
			n.nhScratch = make([]topology.LinkID, len(n.src.Dests()))
		}
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

// adaptiveNextHop picks n's outgoing link toward dst from its own SPF tree,
// whose line numbers index n.out; nil is no route. A next hop onto a link
// this node knows to be down counts as no route — the same classification
// internal/network uses — because with flooded costs a down link is a
// transiently stale database entry.
func (n *lnode) adaptiveNextHop(dst topology.NodeID) *llink {
	i := n.Router.Tree().NextLine(dst)
	if i < 0 || n.out[i].Down() {
		return nil
	}
	return n.out[i]
}

// originate floods n's current link costs (DownCost for out-of-service
// links) to the whole network and accepts them locally. The costs are fresh
// because the Update, and every router accepting it, keeps them.
func (sh *shardState) originate(n *lnode, now sim.Time) {
	costs := make([]float64, len(n.out))
	for i, ls := range n.out {
		costs[i] = ls.Advertised()
	}
	u := n.NextUpdate(sh.s.g, costs, now)
	sh.acceptUpdate(n, u, now)
	if sample := sh.s.cfg.MeasureSample; sample > 0 && int(n.ID)%sample == 0 {
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recOriginate,
			link: topology.NoLink, pkt: u.Seq, count: int64(len(costs))})
		n.rseq++
	}
	n.Flood(sh.s.g, sh, u, topology.NoLink, now, now)
}

// handleUpdate consumes one arriving update copy: accept it or drop it as a
// duplicate, flood a new one on. The carrying packet dies here; forwarded
// copies are fresh packets sharing the immutable payload.
func (sh *shardState) handleUpdate(n *lnode, p *node.Packet, now sim.Time) {
	u, arrival, created := p.Update, p.Arrival, p.Created
	sh.led.CtrlConsumed++
	sh.updatesInFlight[u.Origin]--
	sh.pool.Put(p)
	if sh.acceptUpdate(n, u, now) {
		n.Flood(sh.s.g, sh, u, arrival, created, now)
	}
}

// LinkIsDown reports whether link l, one of this shard's, is out of
// service: half the shard's node.Egress.
func (sh *shardState) LinkIsDown(l topology.LinkID) bool { return sh.s.linkAt[l].Down() }

// Send enqueues one copy of u on link l, one of this shard's, stamped with
// the sending node's next control sequence number: the other half of the
// shard's node.Egress. Routing packets head-insert and are never
// buffer-dropped, so every copy is accepted.
func (sh *shardState) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	ls := sh.s.linkAt[l]
	n := sh.s.nodeAt[ls.l.From]
	if n.cseq == math.MaxUint32 {
		panic(fmt.Sprintf("shard: node %d used all 2^32 control sequence numbers; the next would carry into the origin field of Packet.Seq", n.ID))
	}
	p := sh.pool.Get()
	n.cseq++
	p.Seq = ctrlSeqBit | uint64(n.ID)<<32 | n.cseq
	p.SizeBits = u.SizeBits()
	p.Created = created
	p.Update = u
	p.Arrival = l // the link this copy will traverse
	p.Enqueued = now
	ls.Queue.Push(p)
	sh.led.CtrlGenerated++
	sh.updatesInFlight[u.Origin]++
	sh.startTx(ls, now)
}

// acceptUpdate offers u to n's router and reports whether it was new. For
// trace-sampled nodes it also diffs the next hops toward the node's own
// destination set around an accepted update and records a reroute event when
// any changed — the observable that pins "the reroute happened here, at this
// instant" into the golden trace.
func (sh *shardState) acceptUpdate(n *lnode, u *flooding.Update, now sim.Time) bool {
	sample := sh.s.cfg.MeasureSample
	if sample == 0 || int(n.ID)%sample != 0 {
		return n.Router.Accept(u)
	}
	tree := n.Router.Tree() // repaired in place: snapshot before Accept
	for i, d := range n.src.Dests() {
		n.nhScratch[i] = tree.NextHop(d)
	}
	if !n.Router.Accept(u) {
		return false
	}
	changed := int64(0)
	for i, d := range n.src.Dests() {
		if tree.NextHop(d) != n.nhScratch[i] {
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

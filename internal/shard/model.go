package shard

// The per-shard traffic model: Poisson sources, store-and-forward over
// node.Trunk, and scripted trunk faults. The trunk — output queue, single
// transmitter, §2.2 measurement, cost module, fail/repair transitions — the
// packet size law and the conservation ledger are internal/node's, the same
// code internal/network runs. What is this engine's own is what makes every
// event a node observes independent of the partition (see the package
// comment for the ordering rules): completions are scheduled at absolute
// times, a transmitted packet goes to the far node's content-sorted arrival
// buffer or over the wire to another shard rather than into a propagation
// event, draws come from per-node value-type streams, and outcomes are
// booked into per-shard custody ledgers. With Config.Adaptive the static
// table is replaced by the adaptive routing plane of adaptive.go.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// shardState is one shard: a kernel plus the nodes and links it owns.
type shardState struct {
	s      *Sim
	id     int
	kernel *sim.Kernel
	pool   node.PacketPool
	nodes  []*lnode // ascending global NodeID
	links  []*llink // ascending global LinkID
	led    Ledger
	recs   []rec
	outbox []wire // packets exported during the current window
	origs  int64  // routing updates originated by this shard's nodes (adaptive)

	routers *spf.Table // this shard's nodes' routers (adaptive), driven by its goroutine only

	// Bound callbacks, allocated once so the hot path closures nothing.
	sourceCall  sim.Call
	txDoneCall  sim.Call
	drainCall   sim.Call
	measureCall sim.Call
	faultCall   sim.Call
}

func (sh *shardState) bind() {
	sh.sourceCall = sh.source
	sh.txDoneCall = sh.txDone
	sh.drainCall = sh.drain
	sh.measureCall = sh.measure
	sh.faultCall = sh.fault
}

// lnode is one node's shard-local state.
type lnode struct {
	id   topology.NodeID
	sh   *shardState
	rate float64
	arr  rng // inter-arrival draws
	size rng // packet size draws
	dst  rng // destination choice (also seeds the setup-time dest sample)

	dests []topology.NodeID
	out   []*llink // this node's out-links in Graph.Out order: line i of its SPF tree, or of the static table, is out[i]

	pseq uint64 // packets generated (low word of Packet.Seq)
	rseq uint32 // trace records emitted
	pend []pendArr

	delivered int64
	delaySum  float64 // seconds, accumulated in this node's event order
	hopSum    int64

	// Adaptive routing plane (nil/zero unless Config.Adaptive). All of it is
	// node-local state driven by the node's own event order, so it inherits
	// the partition-independence argument unchanged.
	router    *spf.IncrementalRouter
	seq       flooding.Sequencer
	lastOrig  sim.Time
	cseq      uint64            // control copies enqueued (low word of ctrl Seq)
	fwd       []topology.LinkID // flood-forwarding scratch
	nhScratch []topology.LinkID // next-hop diff scratch, one per dest
}

// pendArr is one arrival awaiting its drain, sorted by (at, link) — an
// order that depends only on content, never on insertion order, which is
// what makes cross-shard injection invisible to the model.
type pendArr struct {
	at   sim.Time
	link topology.LinkID
	pkt  *node.Packet
}

// llink is one directed link's shard-local state: the shared trunk model
// plus where its packets land. It lives in the shard of its From node; To
// may be remote, in which case completed transmissions export over the wire
// instead of buffering an arrival.
type llink struct {
	node.Trunk
	l       topology.Link
	propLat sim.Time // >= 1 tick
	toLocal *lnode   // nil when To lives in another shard
}

// wire is one packet in transit between shards, fully serialized: the
// target reconstructs the packet from its own pool, so no *node.Packet ever
// crosses a shard boundary. Routing-update copies additionally carry their
// payload pointer: a *flooding.Update is immutable after construction, so
// sharing it across the barrier is value semantics — the importing shard
// reads exactly the bytes any partitioning would read, and the barrier's
// happens-before edges make the share race-free.
type wire struct {
	at      sim.Time // arrival time at the target node
	link    topology.LinkID
	seq     uint64
	src     topology.NodeID
	dst     topology.NodeID
	size    float64
	created sim.Time
	hops    int
	upd     *flooding.Update // non-nil for routing-update copies
}

// --- setup ----------------------------------------------------------------

func (s *Sim) buildNode(id topology.NodeID, balls *topology.Search) {
	sh := s.shards[s.part[id]]
	n := &lnode{
		id:   id,
		sh:   sh,
		rate: s.cfg.PktRate,
		arr:  seedRNG(s.cfg.Seed, int(id), 0),
		size: seedRNG(s.cfg.Seed, int(id), 1),
		dst:  seedRNG(s.cfg.Seed, int(id), 2),
	}
	s.nodeAt[id] = n
	sh.nodes = append(sh.nodes, n)
	n.dests = s.sampleDests(n, balls)
}

// sampleDests draws the node's destination set from its dst stream: within
// DestRadius hops when set (locality traffic; balls is then New's search),
// else uniformly.
func (s *Sim) sampleDests(n *lnode, balls *topology.Search) []topology.NodeID {
	total := s.g.NumNodes()
	want := s.cfg.Dests
	if s.cfg.DestRadius > 0 {
		// The ball, n excluded, ascending by ID: the draw indexes into it.
		cand := slices.Clone(balls.From(n.id, s.cfg.DestRadius, nil)[1:])
		slices.Sort(cand)
		if len(cand) <= want {
			return cand
		}
		out := make([]topology.NodeID, 0, want)
		for len(out) < want {
			d := cand[n.dst.intn(len(cand))]
			if !containsNode(out, d) {
				out = append(out, d)
			}
		}
		return out
	}
	if want > total-1 {
		want = total - 1
	}
	out := make([]topology.NodeID, 0, want)
	for len(out) < want {
		d := topology.NodeID(n.dst.intn(total - 1))
		if d >= n.id {
			d++ // skip self without biasing the draw
		}
		if !containsNode(out, d) {
			out = append(out, d)
		}
	}
	return out
}

func containsNode(s []topology.NodeID, d topology.NodeID) bool {
	for _, v := range s {
		if v == d {
			return true
		}
	}
	return false
}

func (s *Sim) buildLinks(id topology.NodeID) {
	sh := s.shards[s.part[id]]
	n := s.nodeAt[id]
	for _, lid := range s.g.Out(id) {
		l := s.g.Link(lid)
		ls := &llink{
			Trunk: node.NewTrunk(s.cfg.QueueLimit,
				node.NewCostModule(s.cfg.Metric, l.Type, l.PropDelay), l.Type.Bandwidth()),
			l:       l,
			propLat: sim.FromSeconds(l.PropDelay),
		}
		if ls.propLat < 1 {
			ls.propLat = 1
		}
		if s.part[l.To] == s.part[id] {
			ls.toLocal = s.nodeAt[l.To]
		}
		s.linkAt[lid] = ls
		sh.links = append(sh.links, ls)
		n.out = append(n.out, ls)
	}
}

// --- traffic --------------------------------------------------------------

// nextGap draws the node's next inter-arrival gap, at least one tick.
func (n *lnode) nextGap() sim.Time {
	gap := sim.FromSeconds(n.arr.exp(1 / n.rate))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// source generates one packet and re-arms itself.
func (sh *shardState) source(now sim.Time, arg any) {
	n := arg.(*lnode)
	if n.pseq == math.MaxUint32 {
		panic(fmt.Sprintf("shard: node %d used up its 32-bit user sequence numbers; one more would carry into the node field of Packet.Seq", n.id))
	}
	p := sh.pool.Get()
	p.Seq = uint64(n.id)<<32 | n.pseq
	n.pseq++
	p.Src = n.id
	p.Dst = n.dests[n.dst.intn(len(n.dests))]
	p.SizeBits = node.ClampPktBits(n.size.exp(node.MeanPktBits))
	p.Created = now
	p.Arrival = topology.NoLink
	p.Counted = true
	sh.led.Generated++
	sh.handlePacket(n, p, now)
	_ = mustCallAt(sh.kernel, now.Add(n.nextGap()), sh.sourceCall, n)
}

// handlePacket delivers, drops, or forwards a packet at node n.
func (sh *shardState) handlePacket(n *lnode, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.handleUpdate(n, p, now)
		return
	}
	if p.Dst == n.id {
		n.delivered++
		n.delaySum += (now - p.Created).Seconds()
		n.hopSum += int64(p.Hops)
		sh.led.Delivered++
		sh.pool.Put(p)
		return
	}
	if p.Hops >= node.MaxHops {
		sh.led.LoopDrops++
		sh.dropRec(n, now, recLoopDrop, p.Arrival, p.Seq)
		sh.pool.Put(p)
		return
	}
	var ls *llink
	if sh.s.cfg.Adaptive {
		// Adaptive: the node's own SPF tree decides. A next hop onto a link
		// this node knows to be down is "no route" (the database is stale),
		// the classification internal/network uses too.
		ls = n.adaptiveNextHop(p.Dst)
		if ls == nil {
			sh.led.NoRouteDrops++
			sh.dropRec(n, now, recNoRouteDrop, p.Arrival, p.Seq)
			sh.pool.Put(p)
			return
		}
	} else {
		ls = n.out[sh.s.routes.nextLine(p.Dst, n.id)]
	}
	p.Enqueued = now
	if !ls.Queue.Push(p) {
		sh.led.BufferDrops++
		sh.dropRec(n, now, recBufferDrop, ls.l.ID, p.Seq)
		sh.pool.Put(p)
		return
	}
	sh.startTx(ls, now)
}

// Allocates: the trace record buffer grows amortized; it is never drained (TraceText reads every record)
func (sh *shardState) dropRec(n *lnode, now sim.Time, kind recKind, link topology.LinkID, pkt uint64) {
	if !sh.s.cfg.TraceDrops {
		n.rseq++ // keep sequence numbering identical whether or not traced
		return
	}
	sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: kind, link: link, pkt: pkt})
	n.rseq++
}

// startTx puts the queue head on the transmitter if the trunk will take one
// (in service, idle, backlog non-empty — Trunk.Next decides), with its
// completion at an absolute time on the shard's kernel. Trunk.Next keeps
// the transmission at least one tick long, so the completion never collides
// with the event that started it.
func (sh *shardState) startTx(ls *llink, now sim.Time) {
	p, tx := ls.Next()
	if p == nil {
		return
	}
	ls.Started(mustCallAt(sh.kernel, now+tx, sh.txDoneCall, ls))
}

// txDone completes a transmission, then either buffers the arrival at the
// local peer or exports it over the wire.
func (sh *shardState) txDone(now sim.Time, arg any) {
	ls := arg.(*llink)
	p := ls.Done(now)
	if p == nil {
		return // stale completion; see Trunk.Done
	}
	at := now + ls.propLat
	if ls.toLocal != nil {
		p.Arrival = ls.l.ID
		sh.deliverArrival(ls.toLocal, at, ls.l.ID, p)
	} else {
		// Allocates: the outbox grows to the per-window export high-watermark, then reuses
		sh.outbox = append(sh.outbox, wire{
			at: at, link: ls.l.ID, seq: p.Seq, src: p.Src, dst: p.Dst,
			size: p.SizeBits, created: p.Created, hops: p.Hops, upd: p.Update,
		})
		if p.Update != nil {
			sh.led.CtrlExported++
		} else {
			sh.led.Exported++
		}
		sh.pool.Put(p)
	}
	sh.startTx(ls, now)
}

// importWire materializes a cross-shard arrival in the target shard.
func (sh *shardState) importWire(w *wire) {
	p := sh.pool.Get()
	p.Seq = w.seq
	p.Src = w.src
	p.Dst = w.dst
	p.SizeBits = w.size
	p.Created = w.created
	p.Hops = w.hops
	p.Arrival = w.link
	if w.upd != nil {
		p.Update = w.upd
		sh.led.CtrlImported++
	} else {
		p.Counted = true
		sh.led.Imported++
	}
	sh.deliverArrival(sh.s.nodeAt[sh.s.g.Link(w.link).To], w.at, w.link, p)
}

// deliverArrival inserts an arrival into n's pending buffer, keeping it
// sorted by (at, link), and arms one drain for the instant if none exists.
// The drain is a tail event: at its instant it fires after every normal
// event, so node n processes the arrival identically whether the sender was
// local (drain armed mid-window) or remote (armed at the barrier).
func (sh *shardState) deliverArrival(n *lnode, at sim.Time, link topology.LinkID, p *node.Packet) {
	i := len(n.pend)
	for i > 0 {
		e := &n.pend[i-1]
		if e.at < at || (e.at == at && e.link < link) {
			break
		}
		i--
	}
	sameAt := (i > 0 && n.pend[i-1].at == at) || (i < len(n.pend) && n.pend[i].at == at)
	n.pend = append(n.pend, pendArr{}) // pending-arrival buffer grows to its high-watermark, then reuses
	copy(n.pend[i+1:], n.pend[i:])
	n.pend[i] = pendArr{at: at, link: link, pkt: p}
	if !sameAt {
		if _, err := sh.kernel.ScheduleTailCallAt(at, sh.drainCall, n); err != nil {
			panic(fmt.Sprintf("shard: %v", err))
		}
	}
}

// drain processes every pending arrival whose time has come, in link order.
func (sh *shardState) drain(now sim.Time, arg any) {
	n := arg.(*lnode)
	if len(n.pend) > 0 && n.pend[0].at < now {
		panic("shard: arrival missed its drain")
	}
	i := 0
	for i < len(n.pend) && n.pend[i].at == now {
		p := n.pend[i].pkt
		n.pend[i].pkt = nil
		i++
		sh.handlePacket(n, p, now)
	}
	n.pend = n.pend[:copy(n.pend, n.pend[i:])]
}

// --- measurement ----------------------------------------------------------

// measure is one measurement period at node n: take every out-link's period
// average (a down link discards its — unobservable on the static plane, see
// fault), feed the cost modules, re-arm the tick, and on the adaptive plane
// originate a flood when any module reports a significant change or the
// 50-second reliability refresh is due.
func (sh *shardState) measure(now sim.Time, arg any) {
	n := arg.(*lnode)
	sample := sh.s.cfg.MeasureSample
	report := false
	for _, ls := range n.out {
		count := ls.Meas.Count()
		avg := ls.Meas.Take()
		if ls.Down() {
			continue
		}
		cost, rep := ls.Module.Update(avg)
		if rep {
			report = true
		}
		if sample > 0 && int(n.id)%sample == 0 {
			sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recMeasure,
				link: ls.l.ID, count: count, avg: avg, cost: cost})
			n.rseq++
		}
	}
	if sh.s.cfg.Adaptive && (report || now-n.lastOrig >= node.MaxUpdateInterval) {
		sh.originate(n, now)
	}
	_ = mustCallAt(sh.kernel, now+sh.s.cfg.MeasurePeriod, sh.measureCall, n)
}

// --- faults ---------------------------------------------------------------

type faultEv struct {
	ls *llink
	up bool
}

// fault applies one scripted state change to a directed link through the
// trunk's Fail/Restore transitions; only the adaptive plane has faults (New
// refuses them otherwise). Going down, the packet on the transmitter and the
// backlog are booked as outage drops (packets already propagating are past
// the cut and survive). Either transition also makes the endpoint originate
// an update advertising the new state (DownCost or the module's reset cost) —
// the other direction's own fault event does the same at the far endpoint,
// which is internal/network's originate-from-both-ends in per-direction form.
// A repair also sends the far end, on the restored link, the update n's
// router holds for every other origin: Rosen's line-up exchange,
// internal/network's resync in the same per-direction form.
func (sh *shardState) fault(now sim.Time, arg any) {
	f := arg.(*faultEv)
	ls := f.ls
	n := sh.s.nodeAt[ls.l.From]
	if f.up {
		if !ls.Down() {
			return
		}
		ls.Restore()
		sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recLinkUp, link: ls.l.ID})
		n.rseq++
	} else {
		if ls.Down() {
			return
		}
		sh.recs = append(sh.recs, rec{at: now, node: n.id, seq: n.rseq, kind: recLinkDown, link: ls.l.ID})
		n.rseq++
		ls.Fail(func(p *node.Packet) { sh.dropOutage(n, ls, p, now) })
	}
	sh.originate(n, now)
	if f.up {
		n.fwd = append(n.fwd[:0], ls.l.ID)
		n.router.Updates(func(u *flooding.Update) {
			if u.Origin != n.id {
				sh.forwardUpdate(n, u, now, now)
			}
		})
	}
}

// dropOutage books one packet flushed by a link outage, keeping control
// copies in their own ledger class.
func (sh *shardState) dropOutage(n *lnode, ls *llink, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.led.CtrlOutageDrops++
	} else {
		sh.led.OutageDrops++
	}
	sh.dropRec(n, now, recOutageDrop, ls.l.ID, p.Seq)
	sh.pool.Put(p)
}

// inFlight snapshots the packets this shard holds custody of, split into
// user traffic and routing-update copies.
func (sh *shardState) inFlight() (user, ctrl int64) {
	classify := func(p *node.Packet) {
		if p.Update != nil {
			ctrl++
		} else {
			user++
		}
	}
	for _, ls := range sh.links {
		ls.Holding(classify)
	}
	for _, ln := range sh.nodes {
		for i := range ln.pend {
			classify(ln.pend[i].pkt)
		}
	}
	return user, ctrl
}

package shard

// The per-shard traffic model: Poisson sources, store-and-forward over
// node.Trunk, and scripted trunk faults. The source (node.Source), the trunk
// — output queue, single transmitter, §2.2 measurement, cost module,
// fail/repair transitions — the hop latency (node.HopLatency) and the
// conservation ledger are internal/node's, the same code internal/network
// runs, and an arrival is the same tail event keyed by its link on both
// engines (the package comment's rule 2). What is this engine's own is what
// carries a packet across a shard boundary unchanged: a packet bound for a
// node on another shard leaves over the wire, its arrival scheduled there
// at the barrier, and outcomes are booked into per-shard custody ledgers.
// With Config.Adaptive the static table is replaced by the adaptive routing
// plane of adaptive.go.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/traffic"
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

	routers *spf.Table // this shard's nodes' routers (adaptive), driven by its goroutine only

	// updatesInFlight counts, by origin, the update copies this shard's
	// nodes enqueued less those it consumed or dropped (adaptive). A copy
	// can die on another shard than the one that sent it, so only the sum
	// over shards means anything: the copies in flight, queued, on a
	// transmitter, on a wire or awaiting their arrival.
	updatesInFlight []int

	// Arrival events pending on this shard's kernel: user packets and
	// update copies that have crossed a link and not yet reached its far end.
	propUser, propCtrl int64

	// Bound callbacks, allocated once so the hot path closures nothing.
	sourceCall  sim.Call
	txDoneCall  sim.Call
	arriveCall  sim.Call
	measureCall sim.Call
	faultCall   sim.Call
}

func (sh *shardState) bind() {
	sh.sourceCall = sh.source
	sh.txDoneCall = sh.txDone
	sh.arriveCall = sh.arrive
	sh.measureCall = sh.measure
	sh.faultCall = sh.fault
}

// lnode is one node's shard-local state.
type lnode struct {
	node.PSN // updating protocol (adaptive); Router is nil on the static plane

	sh  *shardState
	src node.Source // its Poisson source over its destination set, ascending
	out []*llink    // this node's out-links in Graph.Out order: line i of its SPF tree, or of the static table, is out[i]

	pseq uint64 // packets generated (low word of Packet.Seq)
	rseq uint32 // trace records emitted

	// Adaptive routing plane (nil/zero unless Config.Adaptive), beside PSN.
	// All of it is node-local state driven by the node's own event order, so
	// it inherits the partition-independence argument unchanged.
	cseq      uint64            // control copies enqueued (low word of ctrl Seq)
	nhScratch []topology.LinkID // next-hop diff scratch, one per dest
}

// llink is one directed link's shard-local state: the shared trunk model
// plus where its packets land. It lives in the shard of its From node; To
// may be remote, in which case completed transmissions export over the wire
// instead of scheduling their arrival here.
type llink struct {
	node.Trunk
	l       topology.Link
	propLat sim.Time // node.HopLatency
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
		PSN: node.PSN{ID: id},
		sh:  sh,
		src: node.NewSource(s.cfg.Seed, id),
	}
	s.nodeAt[id] = n
	sh.nodes = append(sh.nodes, n)
	dests := s.sampleDests(id, balls)
	n.src.SetRow(dests, s.row(dests))
}

// row is the traffic-matrix row of a node that sends to dests: each an equal
// share of PktRate packets per second, at the clamped mean packet size, in
// bits per second. Every node's source is built from it, and so is Matrix.
func (s *Sim) row(dests []topology.NodeID) []float64 {
	bps := make([]float64, len(dests))
	for i := range bps {
		bps[i] = s.cfg.PktRate * node.ClampedMeanPktBits() / float64(len(dests))
	}
	return bps
}

// Matrix returns the traffic this simulation offers as a traffic matrix:
// row by row, what each node's source draws from. An unsharded engine given
// it draws the same packets from the same seed.
func (s *Sim) Matrix() *traffic.Matrix {
	m := traffic.NewMatrix(s.g.NumNodes())
	for _, n := range s.nodeAt {
		ds := n.src.Dests()
		for i, bps := range s.row(ds) {
			m.Set(n.ID, ds[i], bps)
		}
	}
	return m
}

// sampleDests draws node id's destination set, ascending, from its
// StreamDestSet stream: within DestRadius hops when set (locality traffic;
// balls is then New's search), else uniformly.
func (s *Sim) sampleDests(id topology.NodeID, balls *topology.Search) []topology.NodeID {
	rng := sim.NewRNG(s.cfg.Seed, int(id), node.StreamDestSet)
	total := s.g.NumNodes()
	want := s.cfg.Dests
	var out []topology.NodeID
	if s.cfg.DestRadius > 0 {
		// The ball, id excluded, ascending by ID: the draw indexes into it.
		cand := slices.Clone(balls.From(id, s.cfg.DestRadius, nil)[1:])
		slices.Sort(cand)
		if len(cand) <= want {
			return cand
		}
		for len(out) < want {
			if d := cand[rng.Intn(len(cand))]; !slices.Contains(out, d) {
				out = append(out, d)
			}
		}
	} else {
		want = min(want, total-1)
		for len(out) < want {
			d := topology.NodeID(rng.Intn(total - 1))
			if d >= id {
				d++ // skip self without biasing the draw
			}
			if !slices.Contains(out, d) {
				out = append(out, d)
			}
		}
	}
	slices.Sort(out)
	return out
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
			propLat: node.HopLatency(l),
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

// source generates one packet and re-arms itself.
func (sh *shardState) source(now sim.Time, arg any) {
	n := arg.(*lnode)
	if n.pseq == math.MaxUint32 {
		panic(fmt.Sprintf("shard: node %d used up its 32-bit user sequence numbers; one more would carry into the node field of Packet.Seq", n.ID))
	}
	p := sh.pool.Get()
	p.Seq = uint64(n.ID)<<32 | n.pseq
	n.pseq++
	n.src.Emit(p, now)
	n.Meter.Offer(p)
	sh.led.User.Offered++
	sh.handlePacket(n, p, now)
	_ = mustCallAt(sh.kernel, now.Add(n.src.Gap()), sh.sourceCall, n)
}

// handlePacket delivers, drops, or forwards a packet at node n.
func (sh *shardState) handlePacket(n *lnode, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.handleUpdate(n, p, now)
		return
	}
	if p.Dst == n.ID {
		n.Meter.Deliver(p, now)
		sh.led.User.Delivered++
		sh.pool.Put(p)
		return
	}
	if p.Hops >= node.MaxHops {
		sh.led.User.LoopDrops++
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
			sh.led.User.NoRouteDrops++
			sh.dropRec(n, now, recNoRouteDrop, p.Arrival, p.Seq)
			sh.pool.Put(p)
			return
		}
	} else {
		ls = n.out[sh.s.routes.nextLine(p.Dst, n.ID)]
	}
	p.Enqueued = now
	if !ls.Queue.Push(p) {
		sh.led.User.BufferDrops++
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
	sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: kind, link: link, pkt: pkt})
	n.rseq++
}

// startTx puts the queue head on the transmitter if the trunk will take one
// (in service, idle, backlog non-empty — Trunk.Next decides), with its
// completion the transmission time later on the shard's kernel. Trunk.Next keeps
// the transmission at least one tick long, so the completion never collides
// with the event that started it.
func (sh *shardState) startTx(ls *llink, now sim.Time) {
	p, tx := ls.Next()
	if p == nil {
		return
	}
	ls.Started(mustCallAt(sh.kernel, now+tx, sh.txDoneCall, ls))
}

// txDone completes a transmission, then either schedules the arrival at the
// local peer or exports it over the wire.
func (sh *shardState) txDone(now sim.Time, arg any) {
	ls := arg.(*llink)
	p := ls.Done(now)
	if p == nil {
		return // stale completion; see Trunk.Done
	}
	if p.Update != nil {
		sh.s.nodeAt[ls.l.From].Meter.Transmit(p)
	}
	at := now + ls.propLat
	if ls.toLocal != nil {
		p.Arrival = ls.l.ID
		sh.scheduleArrival(p, at)
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
		sh.led.Imported++
	}
	sh.scheduleArrival(p, w.at)
}

// scheduleArrival schedules p's arrival at the far end of link p.Arrival at
// instant at: a tail event keyed by the link (rule 2), so the node takes it
// after every other event of the instant and in link order among the
// instant's arrivals, whether the sender was local (scheduled mid-window) or
// remote (at the barrier). Until it fires the packet counts as in flight.
func (sh *shardState) scheduleArrival(p *node.Packet, at sim.Time) {
	if p.Update != nil {
		sh.propCtrl++
	} else {
		sh.propUser++
	}
	if _, err := sh.kernel.ScheduleTailCallAt(at, int(p.Arrival), sh.arriveCall, p); err != nil {
		panic(fmt.Sprintf("shard: %v", err))
	}
}

// arrive hands a packet to the node at the far end of the link it crossed.
func (sh *shardState) arrive(now sim.Time, arg any) {
	p := arg.(*node.Packet)
	if p.Update != nil {
		sh.propCtrl--
	} else {
		sh.propUser--
	}
	sh.handlePacket(sh.s.nodeAt[sh.s.linkAt[p.Arrival].l.To], p, now)
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
		if sample > 0 && int(n.ID)%sample == 0 {
			sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recMeasure,
				link: ls.l.ID, count: count, avg: avg, cost: cost})
			n.rseq++
		}
	}
	if sh.s.cfg.Adaptive && (report || n.RefreshDue(now)) {
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
// router holds for every other origin: Rosen's line-up exchange
// (node.PSN.Resync), as internal/network does it, in per-direction form.
func (sh *shardState) fault(now sim.Time, arg any) {
	f := arg.(*faultEv)
	ls := f.ls
	n := sh.s.nodeAt[ls.l.From]
	if f.up {
		if !ls.Down() {
			return
		}
		ls.Restore()
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recLinkUp, link: ls.l.ID})
		n.rseq++
	} else {
		if ls.Down() {
			return
		}
		sh.recs = append(sh.recs, rec{at: now, node: n.ID, seq: n.rseq, kind: recLinkDown, link: ls.l.ID})
		n.rseq++
		ls.Fail(func(p *node.Packet) { sh.dropOutage(n, ls, p, now) })
	}
	sh.originate(n, now)
	if f.up {
		n.Resync(sh, ls.l.ID, now)
	}
}

// dropOutage books one packet flushed by a link outage, keeping control
// copies in their own ledger class.
func (sh *shardState) dropOutage(n *lnode, ls *llink, p *node.Packet, now sim.Time) {
	if p.Update != nil {
		sh.led.CtrlOutageDrops++
		sh.updatesInFlight[p.Update.Origin]--
	} else {
		sh.led.User.OutageDrops++
	}
	sh.dropRec(n, now, recOutageDrop, ls.l.ID, p.Seq)
	sh.pool.Put(p)
}

// inFlight snapshots the packets this shard holds custody of, split into
// user traffic and routing-update copies: those its links hold and those
// whose arrival is pending on its kernel.
func (sh *shardState) inFlight() (user, ctrl int64) {
	user, ctrl = sh.propUser, sh.propCtrl
	for _, ls := range sh.links {
		u, c := ls.Custody()
		user, ctrl = user+u, ctrl+c
	}
	return user, ctrl
}

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
	"slices"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/trace"
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
	log    trace.Log // this shard's nodes' trace events since the last flush, each node's in its own event order
	outbox []wire    // packets exported during the current window

	routers *spf.Table // this shard's nodes' routers (where PSNs flood), driven by its goroutine only

	// updatesInFlight counts, by origin, the update copies this shard's
	// nodes enqueued less those it consumed or dropped (where PSNs flood,
	// else nil). A copy
	// can die on another shard than the one that sent it, so only the sum
	// over shards means anything: the copies in flight, queued, on a
	// transmitter, on a wire or awaiting their arrival.
	updatesInFlight node.Copies

	// Arrival events pending on this shard's kernel: user packets and
	// update copies that have crossed a link and not yet reached its far end.
	propUser, propCtrl int64

	// Bound callbacks, allocated once so the hot path closures nothing.
	sourceCall sim.Call
	txDoneCall sim.Call
	arriveCall sim.Call
	tickCall   sim.Call
	faultCall  sim.Call
}

func (sh *shardState) bind() {
	sh.sourceCall = sh.source
	sh.txDoneCall = sh.txDone
	sh.arriveCall = sh.arrive
	sh.tickCall = sh.tick
	sh.faultCall = sh.fault
}

// lnode is one node's shard-local state: its PSN, whose source draws over
// its destination set, ascending, or its matrix row.
type lnode struct {
	node.PSN // routing protocol (node.Boot); no Router or vector on the static plane

	sh  *shardState
	out []*llink // this node's out-links in Graph.Out order: line i of its SPF tree, or of the static table, is out[i]
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
// crosses a shard boundary. Routing packets additionally carry their
// payload pointer: a *flooding.Update or a *node.Vector is immutable after
// construction, so sharing it across the barrier is value semantics — the
// importing shard reads exactly the bytes any partitioning would read, and
// the barrier's happens-before edges make the share race-free.
type wire struct {
	at      sim.Time // arrival time at the target node
	link    topology.LinkID
	seq     uint64
	src     topology.NodeID
	dst     topology.NodeID
	size    float64
	created sim.Time
	hops    int
	minHops int
	upd     *flooding.Update // non-nil for routing-update copies
	vec     *node.Vector     // non-nil for 1969 vectors
}

// --- setup ----------------------------------------------------------------

// row is the traffic-matrix row of a node that sends to dests: each an equal
// share of PktRate packets per second, at the clamped mean packet size, in
// bits per second. Every node's source is built from it, and so is Matrix.
func (cfg Config) row(dests []topology.NodeID) []float64 {
	bps := make([]float64, len(dests))
	for i := range bps {
		bps[i] = cfg.PktRate * node.ClampedMeanPktBits() / float64(len(dests))
	}
	return bps
}

// Matrix returns the traffic New would offer as a traffic matrix, without
// building a simulation: row by row, what each node's source draws from. An
// unsharded engine given it draws the same packets from the same seed. It
// reads only Graph, Seed and the traffic fields.
func (cfg Config) Matrix() *traffic.Matrix {
	if cfg.Traffic != nil {
		return cfg.Traffic
	}
	m := traffic.NewMatrix(cfg.Graph.NumNodes())
	for id, ds := range cfg.destSets() {
		for i, bps := range cfg.row(ds) {
			m.Set(topology.NodeID(id), ds[i], bps)
		}
	}
	return m
}

// destSets draws each node's destination set, ascending, from its
// StreamDestSet stream: within DestRadius hops when set (locality traffic),
// else uniformly.
func (cfg Config) destSets() [][]topology.NodeID {
	total := cfg.Graph.NumNodes()
	var balls *topology.Search
	if cfg.DestRadius > 0 {
		balls = topology.NewSearch(cfg.Graph)
	}
	sets := make([][]topology.NodeID, total)
	for id := range topology.NodeID(total) {
		rng := sim.NewRNG(cfg.Seed, int(id), node.StreamDestSet)
		want := cfg.Dests
		var out []topology.NodeID
		if cfg.DestRadius > 0 {
			// The ball, id excluded, ascending by ID: the draw indexes into it.
			cand := slices.Clone(balls.From(id, cfg.DestRadius, nil)[1:])
			slices.Sort(cand)
			if len(cand) <= want {
				sets[id] = cand
				continue
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
		sets[id] = out
	}
	return sets
}

func (s *Sim) buildLinks(id topology.NodeID) {
	sh := s.shards[s.part[id]]
	n := s.nodeAt[id]
	for _, lid := range s.g.Out(id) {
		l := s.g.Link(lid)
		ls := &llink{
			Trunk: node.NewTrunk(s.cfg.QueueLimit,
				node.NewCostModule(s.cfg.Metric, l.Type, l.PropDelay, s.cfg.Ablations...), l.Type.Bandwidth()),
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

// The scripted changes below — a surge, a matrix switch, a trunk fault, the
// warm-up's end — are made between Run invocations, once the run has reached
// the end of the instant before the change's (Run(at-1)): every kernel is
// idle, and the change takes effect before every event of its instant, as
// internal/network's scripted events do.

// setRows gives every node's source its row of m, each destination with its
// hop count.
func (s *Sim) setRows(m *traffic.Matrix) {
	ids := make([]topology.NodeID, s.g.NumNodes())
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	topology.AllHops(s.g, func(id topology.NodeID, hops func(topology.NodeID) int) {
		s.nodeAt[id].Src.SetRow(ids, m.Row(id), hops)
	})
}

// ScaleTraffic multiplies every source's rate by factor, on every shard,
// effective from each source's next arrival: a surge.
func (s *Sim) ScaleTraffic(factor float64) {
	for _, n := range s.nodeAt {
		n.Src.Rate *= factor
	}
}

// SetMatrix switches every source to its row of m at instant at, on every
// shard, effective from its next arrival. A source m silences parks then
// (node.Source.Fire); one m revives is re-armed, its next arrival a Gap
// after at.
func (s *Sim) SetMatrix(m *traffic.Matrix, at sim.Time) {
	s.setRows(m)
	for _, n := range s.nodeAt {
		if n.Src.Arm() {
			_ = mustCallAt(n.sh.kernel, at+n.Src.Gap(), n.sh.sourceCall, n)
		}
	}
}

// source generates one packet and re-arms itself, unless its rate has
// fallen to 0 (node.Source.Fire).
func (sh *shardState) source(now sim.Time, arg any) {
	n := arg.(*lnode)
	if !n.Src.Fire() {
		return
	}
	p := sh.pool.Get()
	n.Src.Emit(p, now)
	n.Meter.Offer(p)
	sh.led.User.Offered++
	sh.handlePacket(n, p, now)
	_ = mustCallAt(sh.kernel, now.Add(n.Src.Gap()), sh.sourceCall, n)
}

// handlePacket delivers, drops, or forwards a packet at node n.
func (sh *shardState) handlePacket(n *lnode, p *node.Packet, now sim.Time) {
	if p.IsRouting() {
		sh.handleRouting(n, p, now)
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
		sh.dropRec(n, now, trace.PacketLooped, p.Arrival, p.Seq)
		sh.pool.Put(p)
		return
	}
	var ls *llink
	if sh.s.cfg.Adaptive {
		// Adaptive: the node's own SPF tree or distance vector decides,
		// its line numbers indexing n.out. A next hop onto a link this node
		// knows to be down is "no route" (the database is stale), the
		// classification internal/network uses too.
		if i := n.NextLine(p.Dst); i >= 0 && !n.out[i].Down() {
			ls = n.out[i]
		}
		if ls == nil {
			sh.led.User.NoRouteDrops++
			sh.dropRec(n, now, trace.PacketNoRoute, p.Arrival, p.Seq)
			sh.pool.Put(p)
			return
		}
	} else {
		ls = n.out[sh.s.routes.nextLine(p.Dst, n.ID)]
	}
	p.Enqueued = now
	if !ls.Queue.Push(p) {
		sh.led.User.BufferDrops++
		sh.dropRec(n, now, trace.PacketDropped, ls.l.ID, p.Seq)
		sh.pool.Put(p)
		return
	}
	sh.startTx(ls, now)
}

// dropRec traces a drop at n (Config.TraceDrops).
// Allocates: the trace log grows amortized; only Config.Trace drains it, once a second
func (sh *shardState) dropRec(n *lnode, now sim.Time, kind trace.Kind, link topology.LinkID, pkt uint64) {
	if sh.s.cfg.TraceDrops {
		sh.log.Add(trace.Event{At: now, Kind: kind, Node: n.ID, Link: link, Pkt: pkt})
	}
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
	if p.IsRouting() {
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
			size: p.SizeBits, created: p.Created, hops: p.Hops, minHops: p.MinHops, upd: p.Update, vec: p.Vector,
		})
		if p.IsRouting() {
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
	p.MinHops = w.minHops
	p.Arrival = w.link
	p.Update, p.Vector = w.upd, w.vec
	if p.IsRouting() {
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
	if p.IsRouting() {
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
	if p.IsRouting() {
		sh.propCtrl--
	} else {
		sh.propUser--
	}
	sh.handlePacket(sh.s.nodeAt[sh.s.linkAt[p.Arrival].l.To], p, now)
}

// --- routing --------------------------------------------------------------

// tick is one of n's periodic steps (node.PSN.Tick): a measurement period,
// and on the adaptive plane maybe a flood, or a 1969 vector exchange; it
// re-arms itself.
func (sh *shardState) tick(now sim.Time, arg any) {
	n := arg.(*lnode)
	_ = mustCallAt(sh.kernel, now+n.Tick(sh.s.g, sh, now), sh.tickCall, n)
}

// --- faults ---------------------------------------------------------------

type faultEv struct {
	ls *llink
	up bool
}

// ApplyFault fails or restores f.Trunk at f.At, each direction as its
// Config.Faults event would. Only the adaptive plane takes faults.
func (s *Sim) ApplyFault(f Fault) {
	for _, l := range [2]topology.LinkID{topology.LinkID(2 * f.Trunk), topology.LinkID(2*f.Trunk + 1)} {
		ls := s.linkAt[l]
		s.nodeAt[ls.l.From].sh.fault(f.At, &faultEv{ls: ls, up: f.Up})
	}
}

// fault applies one scripted state change to a directed link through the
// trunk's Fail/Restore transitions; only the adaptive plane has faults (New
// refuses them otherwise). Going down, the packet on the transmitter and the
// backlog are booked as outage drops (packets already propagating are past
// the cut and survive). Then the endpoint takes its part in the change
// (node.PSN.LineChanged): a flooding PSN originates an update advertising the
// new state (DownCost or the module's reset cost) and, over a restored link,
// sends the far end the update its router holds for every other origin,
// Rosen's line-up exchange. The other direction's own fault event does the
// same at the far endpoint: internal/network's both-ends form, per direction.
func (sh *shardState) fault(now sim.Time, arg any) {
	f := arg.(*faultEv)
	ls := f.ls
	n := sh.s.nodeAt[ls.l.From]
	if f.up {
		if !ls.Down() {
			return
		}
		ls.Restore()
		sh.log.Add(trace.Event{At: now, Kind: trace.LinkUp, Node: n.ID, Link: ls.l.ID})
	} else {
		if ls.Down() {
			return
		}
		sh.log.Add(trace.Event{At: now, Kind: trace.LinkDown, Node: n.ID, Link: ls.l.ID})
		ls.Fail(func(p *node.Packet) { sh.dropOutage(n, ls, p, now) })
	}
	n.LineChanged(sh.s.g, sh, ls.l.ID, now)
}

// dropOutage books one packet flushed by a link outage, keeping routing
// packets in their own ledger class.
func (sh *shardState) dropOutage(n *lnode, ls *llink, p *node.Packet, now sim.Time) {
	if p.IsRouting() {
		sh.updatesInFlight.Remove(p)
		sh.led.CtrlOutageDrops++
	} else {
		sh.led.User.OutageDrops++
	}
	sh.dropRec(n, now, trace.PacketOutage, ls.l.ID, p.Seq)
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

// Package network assembles the complete ARPANET model on top of the
// discrete-event kernel: PSNs with finite output queues, trunk
// transmitters, Poisson traffic sources driven by a traffic matrix,
// per-link delay measurement on the 10-second period, and the routing
// protocol a node.PSN runs — the flood of routing updates over one of the SPF
// metrics (HN-SPF, D-SPF, min-hop) or the 1969 distance vector — as real
// high-priority packets that consume trunk bandwidth.
//
// It is the experiment driver behind Table 1, Figure 1 and Figure 13.
package network

import (
	"repro/internal/core"
	"repro/internal/flooding"
	"repro/internal/flowmodel"
	"repro/internal/node"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The packet-life constants and the conservation ledger live in
// internal/node, shared with the sharded engine; these are the names
// bench/ and the commands already use for them.
const (
	MaxHops           = node.MaxHops
	DefaultQueueLimit = node.DefaultQueueLimit
)

// Conservation is node.Conservation.
type Conservation = node.Conservation

// Report is node.Report, the one report of both packet engines: here its
// window opens at Config.Warmup.
type Report = node.Report

// sampleInterval is the period of the link-utilization samples.
const sampleInterval = sim.Second

// Config describes one simulation run.
type Config struct {
	Graph  *topology.Graph
	Matrix *traffic.Matrix
	Metric node.MetricKind

	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Warmup opens the measured window: Report covers what happens after
	// it. The packet ledger (Conservation) books every packet from t = 0.
	// The window opens before every other event of its instant, as the
	// sharded engine opens it between barrier windows.
	Warmup sim.Time
	// Script, when non-nil, is called by New before it schedules anything
	// but the warm-up, so each event Script schedules fires before every
	// event of the engine's own at its instant: where the sharded engine
	// applies a scripted event, between barrier windows.
	Script func(*Network)
	// Ablations switch HN-SPF's stabilization mechanisms off, one option
	// each (node.NewCostModule); the other metrics ignore them.
	Ablations []core.Option
	// Multipath enables near-equal-cost multipath forwarding (§4.5,
	// node.Boot): packets spread randomly over every first hop on a
	// minimum-cost path. This is the paper's "future work" remedy for large
	// single flows.
	Multipath bool
	// Trace, when non-nil, receives every PSN's trace events (bounded ring),
	// in the trace's order (trace.Sort): each second's as its utilization
	// sample closes it, and the rest when Run returns.
	Trace *trace.Ring
	// Track names links whose utilization and price every sample records
	// (node.Window.Series).
	Track []node.LinkSeries

	// Background, when non-nil, turns on the hybrid fluid/packet engine:
	// this matrix is modeled as fluid flows routed over the advertised
	// link costs (re-routed every measurement period) and superposed onto
	// each trunk's measured delay and sampled utilization, so the metric
	// modules see the combined load without a background packet ever being
	// scheduled. Foreground traffic (Matrix) stays packet-level. With a
	// nil Background the engine is bit-for-bit the pure packet simulator.
	Background *traffic.Matrix
}

// Network is a running simulation. Build with New, drive with Run, then
// read Report, the trace and the tracked series. Not safe for concurrent
// use.
type Network struct {
	cfg    Config
	kernel *sim.Kernel
	g      *topology.Graph
	ids    []topology.NodeID // every PSN's ID, ascending: the destinations of a matrix row
	psns   []*psn
	links  []*linkState
	// routers is the PSNs' shared table, the one link-state database: one
	// kernel, one goroutine drives them all (nil where nothing floods).
	routers *spf.Table

	// fluid is the hybrid engine's background layer (nil without
	// cfg.Background).
	fluid *flowmodel.Fluid

	// pool recycles packets; every terminal site of the conservation ledger
	// releases into it, which is exactly why recycling is safe — a packet
	// the ledger still counts as in flight can never reach a Put.
	pool node.PacketPool

	// Bound callbacks for the closure-free kernel API, created once in New
	// so the hot path never allocates a closure per event.
	sourceFireFn sim.Call
	txDoneFn     sim.Call
	propArriveFn sim.Call
	tickFn       sim.Call
	sampleFn     sim.Call

	// led books every user packet's fate from t = 0; its InFlight is
	// counted only at the snapshot (Conservation). win is the measured
	// window over the PSNs' meters and the links' utilization. ctrlSent,
	// ctrlConsumed and ctrlOutage count routing packets enqueued, consumed and
	// destroyed by an outage, from t = 0: the update copies where PSNs flood.
	led                                node.Conservation
	win                                *node.Window
	ctrlSent, ctrlConsumed, ctrlOutage int64

	// log holds the trace events since the last sample, with Config.Trace.
	log trace.Log

	// In-flight propagation accounting: packets that have left a
	// transmitter and are on the wire awaiting the far-end handlePacket.
	propUser    int // user packets propagating
	propRouting int // routing packets propagating

	// updatesInFlight counts, by origin, the copies of its flooded updates
	// queued, on a transmitter or propagating (nil where nothing floods).
	updatesInFlight node.Copies
}

type psn struct {
	node.PSN              // routing protocol
	lines    []*linkState // its out-links in Graph.Out order, so its next line i is lines[i]
}

// linkState is one directed link: the shared trunk model plus what only
// this engine keeps — the far end's latency and the flooded-cost view the
// auditors and the fluid layer read.
type linkState struct {
	node.Trunk
	link topology.Link

	// propLat is node.HopLatency, hoisted out of the transmit path (saves a
	// float conversion).
	propLat sim.Time

	// lastFlooded is the cost most recently flooded for this link by its
	// owning PSN (DownCost while out of service): the cost the fluid
	// background routes its demand on.
	lastFlooded float64
}

// New builds a network ready to run. It validates the topology, creates
// the per-link metric modules, boots every PSN with the identical initial
// cost database, and schedules traffic sources, measurement periods and
// utilization sampling.
func New(cfg Config) *Network {
	if cfg.Graph == nil || cfg.Matrix == nil {
		panic("network: Config needs Graph and Matrix")
	}
	if err := cfg.Graph.Validate(); err != nil {
		panic(err)
	}
	if cfg.Matrix.NumNodes() != cfg.Graph.NumNodes() {
		panic("network: matrix size does not match graph")
	}
	n := &Network{
		cfg:    cfg,
		kernel: sim.New(),
		g:      cfg.Graph,
	}
	n.sourceFireFn = func(t sim.Time, a any) { n.sourceFire(a.(*psn), t) }
	n.txDoneFn = func(t sim.Time, a any) { n.txDone(a.(*linkState), t) }
	n.propArriveFn = func(t sim.Time, a any) { n.propArrive(a.(*node.Packet), t) }
	n.tickFn = func(t sim.Time, a any) { n.tick(a.(*psn), t) }
	n.sampleFn = func(t sim.Time, _ any) { n.sample(t) }
	// The window is open from boot; a warm-up's end opens a fresh one.
	if cfg.Warmup > 0 {
		// Fire-and-forget: warmup end is unconditional for the whole run.
		_ = n.kernel.Schedule(cfg.Warmup, func(now sim.Time) { n.win.Open(now, n.Conservation()) })
	}
	if cfg.Script != nil {
		cfg.Script(n)
	}

	n.links = make([]*linkState, n.g.NumLinks())
	for i, l := range n.g.Links() {
		ls := &linkState{
			Trunk:   node.NewTrunk(node.DefaultQueueLimit, node.NewCostModule(cfg.Metric, l.Type, l.PropDelay, cfg.Ablations...), l.Type.Bandwidth()),
			link:    l,
			propLat: node.HopLatency(l),
		}
		ls.lastFlooded = ls.Advertised()
		n.links[i] = ls
	}

	n.psns = make([]*psn, n.g.NumNodes())
	n.ids = make([]topology.NodeID, n.g.NumNodes())
	psns := make([]*node.PSN, n.g.NumNodes())
	for i := range n.psns {
		id := topology.NodeID(i)
		n.ids[i] = id
		p := &psn{
			PSN:   node.PSN{ID: id, Src: node.NewSource(cfg.Seed, id)},
			lines: make([]*linkState, n.g.Degree(id)),
		}
		if cfg.Trace != nil {
			p.Trace = &n.log
		}
		for j, l := range n.g.Out(id) {
			p.lines[j] = n.links[l]
		}
		n.psns[i], psns[i] = p, &p.PSN
	}
	n.routers, n.updatesInFlight = node.Boot(cfg.Metric, true, cfg.Multipath, cfg.Seed, n.g, psns,
		func(l topology.LinkID) *node.Trunk { return &n.links[l].Trunk }, node.MeasurementPeriod)
	n.setRows(cfg.Matrix)

	n.win = node.NewWindow(len(n.psns), func(i int) *node.PSN { return &n.psns[i].PSN },
		len(n.links), func(l int) *node.Trunk { return &n.links[l].Trunk })
	n.win.Series = cfg.Track

	for _, p := range n.psns {
		// Fire-and-forget: each PSN's tick chain runs for the lifetime of the
		// network; a down line is skipped inside the tick, not cancelled.
		_ = n.kernel.ScheduleCall(p.FirstTick(len(n.psns)), n.tickFn, p)
	}
	n.setupBackground()
	_, _ = n.kernel.ScheduleTailCallAt(sampleInterval, sim.MaxTailKey, n.sampleFn, nil)
	n.armSources()
	return n
}

// setupBackground builds the hybrid engine's fluid layer: the background
// matrix is routed over the last-flooded costs (what every converged PSN's
// database holds — so the fluid follows exactly the routes the packet
// engine would have used), assigned once at boot and re-assigned every
// measurement period. Where nothing floods (BF-1969) the background stays
// on the boot-time routes; the hybrid mode is meant for the SPF metrics.
func (n *Network) setupBackground() {
	if n.cfg.Background == nil {
		return
	}
	if n.cfg.Background.NumNodes() != n.g.NumNodes() {
		panic("network: background matrix size does not match graph")
	}
	cost := func(l topology.LinkID) float64 { return n.links[l].lastFlooded }
	down := func(l topology.LinkID) bool { return n.links[l].Down() }
	n.fluid = flowmodel.NewFluid(n.g, n.cfg.Background)
	n.fluid.Reassign(cost, down)
	// Background re-routing runs for the lifetime of the network, like
	// measurement and sampling.
	n.kernel.Every(node.MeasurementPeriod, func(sim.Time) { n.fluid.Reassign(cost, down) })
}

// Kernel exposes the simulation clock for callers that schedule scenario
// events (link failures, matrix switches).
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Run advances the simulation to the given absolute time, its trace
// events up to then in Config.Trace.
func (n *Network) Run(until sim.Time) {
	n.kernel.RunUntil(until)
	n.flush()
}

// record adds a drop's or a link's trace event (with Config.Trace).
func (n *Network) record(e trace.Event) {
	if n.cfg.Trace != nil {
		n.log.Add(e)
	}
}

// flush puts the trace events recorded since the last flush into
// Config.Trace in the trace's order. Every event from then on is later.
func (n *Network) flush() {
	trace.Sort(n.log)
	for _, e := range n.log {
		n.cfg.Trace.Add(e)
	}
	n.log = n.log[:0]
}

// --- traffic generation -------------------------------------------------

// armSources schedules the first arrival of every source node.Source.Arm
// says to: at boot, of each that offers something, and after SetMatrix, of
// each the new matrix revived.
func (n *Network) armSources() {
	for _, p := range n.psns {
		if p.Src.Arm() {
			// Fire-and-forget: a source the matrix silences parks at its next
			// arrival (node.Source.Fire) rather than being cancelled.
			_ = n.kernel.ScheduleCall(p.Src.Gap(), n.sourceFireFn, p)
		}
	}
}

func (n *Network) sourceFire(p *psn, now sim.Time) {
	if !p.Src.Fire() {
		return
	}
	pkt := n.pool.Get()
	p.Src.Emit(pkt, now)
	n.led.Offered++
	p.Meter.Offer(pkt)
	n.handlePacket(p, pkt, now)
	// Fire-and-forget: see armSources.
	_ = n.kernel.ScheduleCall(p.Src.Gap(), n.sourceFireFn, p)
}

// --- forwarding ---------------------------------------------------------

// handlePacket processes a packet at a PSN: deliver, drop, or enqueue on
// the next-hop link per the PSN's current SPF tree.
func (n *Network) handlePacket(p *psn, pkt *node.Packet, now sim.Time) {
	if pkt.IsRouting() {
		n.ctrlConsumed++
		n.updatesInFlight.Remove(pkt)
		p.Hear(n.g, n, pkt, now)
		// Routing consumption: the payload lives on (flood copies share it);
		// the carrying packet is done.
		n.pool.Put(pkt)
		return
	}
	if pkt.Dst == p.ID {
		n.led.Delivered++
		p.Meter.Deliver(pkt, now)
		n.pool.Put(pkt)
		return
	}
	if pkt.Hops >= MaxHops {
		n.led.LoopDrops++
		n.record(trace.Event{At: now, Kind: trace.PacketLooped, Node: p.ID, Link: pkt.Arrival, Pkt: pkt.Seq})
		n.pool.Put(pkt)
		return
	}
	// The next hop is a line number, the SPF tree's, the multipath DAG's or
	// the distance vector's: the PSN's own lines answer it.
	i := p.NextLine(pkt.Dst)
	if i < 0 || p.lines[i].Down() {
		n.led.NoRouteDrops++
		n.record(trace.Event{At: now, Kind: trace.PacketNoRoute, Node: p.ID, Link: pkt.Arrival, Pkt: pkt.Seq})
		n.pool.Put(pkt)
		return
	}
	n.enqueue(p.lines[i], pkt, now)
}

func (n *Network) enqueue(ls *linkState, pkt *node.Packet, now sim.Time) {
	pkt.Enqueued = now
	if !ls.Queue.Push(pkt) {
		n.led.BufferDrops++
		n.record(trace.Event{At: now, Kind: trace.PacketDropped, Node: ls.link.From, Link: ls.link.ID, Pkt: pkt.Seq})
		n.pool.Put(pkt)
		return
	}
	n.startTx(ls)
}

// startTx puts the next queued packet on the transmitter if the trunk will
// take one (in service, idle, backlog non-empty — Trunk.Next decides), with
// its completion a relative delay on the one kernel.
func (n *Network) startTx(ls *linkState) {
	if pkt, txTime := ls.Next(); pkt != nil {
		ls.Started(n.kernel.ScheduleCall(txTime, n.txDoneFn, ls))
	}
}

// txDone books one completed transmission and sends the packet down the
// wire: a propagation event to the far-end PSN.
func (n *Network) txDone(ls *linkState, now sim.Time) {
	pkt := ls.Done(now)
	if pkt == nil {
		return // stale completion; see Trunk.Done
	}
	if pkt.IsRouting() {
		n.psns[ls.link.From].Meter.Transmit(pkt)
		n.propRouting++
	} else {
		n.propUser++
	}
	// The packet is its own propagation record: Arrival names the link it
	// is crossing, and keys its arrival, a tail event (see
	// sim.Kernel.ScheduleTailCallAt). Fire-and-forget: a packet on the wire
	// is past cancellation; an outage mid-propagation is handled at arrival.
	pkt.Arrival = ls.link.ID
	_, _ = n.kernel.ScheduleTailCallAt(now+ls.propLat, int(ls.link.ID), n.propArriveFn, pkt)
	n.startTx(ls)
}

// propArrive completes one link traversal: the packet reaches the far-end
// PSN node.HopLatency after its transmission ended, after every other event
// of the instant and in link order among the instant's arrivals, as on the
// sharded engine.
func (n *Network) propArrive(pkt *node.Packet, now sim.Time) {
	if pkt.IsRouting() {
		n.propRouting--
	} else {
		n.propUser--
	}
	n.handlePacket(n.psns[n.links[pkt.Arrival].link.To], pkt, now)
}

// dropOutage accounts one packet destroyed by a trunk failure. Routing
// packets are counted apart — the flood refresh regenerates them — and user
// packets enter the outage-drop class so conservation stays exact. Either
// way the packet's life ends here, traced at the link's sending end.
func (n *Network) dropOutage(ls *linkState, pkt *node.Packet, now sim.Time) {
	if !pkt.IsRouting() {
		n.led.OutageDrops++
	} else {
		n.ctrlOutage++
		n.updatesInFlight.Remove(pkt)
	}
	n.record(trace.Event{At: now, Kind: trace.PacketOutage, Node: ls.link.From, Link: ls.link.ID, Pkt: pkt.Seq})
	n.pool.Put(pkt)
}

// --- routing -------------------------------------------------------------

// The network's node.Egress: Send and SendVector put a routing packet on a
// line, Originated keeps the flooded costs for the fluid background, and
// Delay superposes the fluid background on a measurement.

// Send enqueues one copy of u on link l.
func (n *Network) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	n.updatesInFlight.Add(u)
	n.sendRouting(l, u, nil, u.SizeBits(), created, now)
}

// SendVector enqueues v on link l.
func (n *Network) SendVector(l topology.LinkID, v *node.Vector, now sim.Time) {
	n.sendRouting(l, nil, v, v.SizeBits(), now, now)
}

// sendRouting enqueues on link l one fresh routing packet carrying u or v,
// numbered by its sender (node.PSN.CtrlSeq). A routing packet goes to the
// head of the queue and is never refused.
func (n *Network) sendRouting(l topology.LinkID, u *flooding.Update, v *node.Vector, size float64, created, now sim.Time) {
	n.ctrlSent++
	pkt := n.pool.Get()
	pkt.Seq = n.psns[n.links[l].link.From].CtrlSeq()
	pkt.SizeBits, pkt.Created, pkt.Update, pkt.Vector, pkt.Arrival = size, created, u, v, l
	n.enqueue(n.links[l], pkt, now)
}

// Originated keeps u's costs as the ones last flooded for p's lines.
func (n *Network) Originated(_ *node.PSN, u *flooding.Update, _ sim.Time) {
	for i, l := range u.Links {
		n.links[l].lastFlooded = u.Costs[i]
	}
}

// Delay folds the fluid background into line l's period average.
func (n *Network) Delay(l topology.LinkID, avg float64) float64 {
	if n.fluid == nil {
		return avg
	}
	return n.superpose(n.links[l], avg)
}

// tick is one of p's periodic steps (node.PSN.Tick); it re-arms itself.
func (n *Network) tick(p *psn, now sim.Time) {
	// Fire-and-forget: see New.
	_ = n.kernel.ScheduleCall(p.Tick(n.g, n, now), n.tickFn, p)
}

// superpose folds the link's fluid background load into one measurement
// period's average foreground delay, producing the delay the metric module
// would have measured had the background been real packets. An idle period
// (no foreground packet crossed the trunk) synthesizes the measurement the
// background packets alone would have produced — without it a bg-loaded
// trunk with no foreground traffic would advertise its floor cost and
// attract every foreground flow onto its hidden congestion.
func (n *Network) superpose(ls *linkState, avg float64) float64 {
	bg := n.fluid.LinkBPS(ls.link.ID)
	if bg <= 0 {
		return avg
	}
	s := queueing.ServiceTime(ls.Bandwidth)
	rho := bg / ls.Bandwidth
	if avg <= 0 {
		if rho > queueing.MaxRho {
			rho = queueing.MaxRho
		}
		return queueing.MM1Delay(s, rho) + node.ProcessingDelay.Seconds()
	}
	return queueing.SuperposeDelay(s, avg, rho)
}

// --- utilization sampling -----------------------------------------------

// sample takes every link's utilization sample, puts the second's trace
// events into Config.Trace, and re-arms itself a sampleInterval later. It is
// a tail event, after every other event of its instant
// (sim.Kernel.ScheduleTailCallAt), so a transmission ending on the instant
// counts in its sample, as on the sharded engine, and every event of the
// instant is in the second it closes. Sampling runs for the lifetime of the
// network.
func (n *Network) sample(now sim.Time) {
	for _, ls := range n.links {
		extra := 0.0
		if n.fluid != nil && !ls.Down() {
			// The fluid background occupies capacity the transmitter
			// never sees; a dead trunk's stranded fluid counts nothing
			// until the next epoch re-routes it.
			extra = n.fluid.LinkBPS(ls.link.ID) / ls.Bandwidth
		}
		n.win.Sample(ls.link.ID, now, sampleInterval, extra)
	}
	n.flush()
	_, _ = n.kernel.ScheduleTailCallAt(now+sampleInterval, sim.MaxTailKey, n.sampleFn, nil)
}

// Report composes the measured window (node.Window.Report) at the current
// simulation time, with the update copies' counters from t = 0: none where
// nothing floods, whose routing packets are vectors, as on internal/shard.
func (n *Network) Report() Report {
	r := n.win.Report(n.cfg.Metric.String(), n.kernel.Now(), n.Conservation())
	if n.routers != nil {
		r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops = n.ctrlSent, n.ctrlConsumed, n.ctrlOutage
		for _, c := range n.updatesInFlight {
			r.CtrlInFlight += int64(c)
		}
	}
	return r
}

// setRows gives every source its row of m, each destination with its hop
// count.
func (n *Network) setRows(m *traffic.Matrix) {
	topology.AllHops(n.g, func(s topology.NodeID, hops func(topology.NodeID) int) {
		n.psns[s].Src.SetRow(n.ids, m.Row(s), hops)
	})
}

// --- link failures ------------------------------------------------------

// SetTrunkDown takes both directions of the trunk containing link l out of
// service, each traced at its sending end, and floods the news from both
// ends. Packets on the transmitters and in the output queues are destroyed by
// the outage and counted as outage drops — they do not vanish from the
// conservation ledger, and no stale completion event survives to
// double-start a transmitter after a repair. A no-op on a trunk that is
// already down.
func (n *Network) SetTrunkDown(l topology.LinkID) {
	if n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	for _, id := range []topology.LinkID{l, n.g.Link(l).Reverse()} {
		ls := n.links[id]
		n.record(trace.Event{At: now, Kind: trace.LinkDown, Node: ls.link.From, Link: id})
		// The packet on the transmitter and the backlog are lost to the
		// outage (see Trunk.Fail); each is booked as an outage drop.
		ls.Fail(func(pkt *node.Packet) { n.dropOutage(ls, pkt, now) })
	}
	n.psns[n.g.Link(l).From].LineChanged(n.g, n, l, now)
	n.psns[n.g.Link(l).To].LineChanged(n.g, n, n.g.Link(l).Reverse(), now)
}

// SetTrunkUp returns the trunk to service, each direction traced at its
// sending end. The metric modules Reset, so an HN-SPF link comes back at its
// maximum cost and eases in (§5.4). Both ends flood the repair and
// resynchronise each other over the trunk (node.PSN.LineChanged). A no-op on
// a trunk that is already up.
func (n *Network) SetTrunkUp(l topology.LinkID) {
	if !n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	rev := n.g.Link(l).Reverse()
	for _, id := range []topology.LinkID{l, rev} {
		n.links[id].Restore()
		n.record(trace.Event{At: now, Kind: trace.LinkUp, Node: n.links[id].link.From, Link: id})
	}
	// Flooding the repair enqueues the updates on the restored trunk itself,
	// which restarts its transmitter.
	n.psns[n.g.Link(l).From].LineChanged(n.g, n, l, now)
	n.psns[n.g.Link(l).To].LineChanged(n.g, n, rev, now)
}

// LinkIsDown reports whether the link is currently out of service.
func (n *Network) LinkIsDown(l topology.LinkID) bool { return n.links[l].Down() }

// Package network assembles the complete ARPANET model on top of the
// discrete-event kernel: PSNs with finite output queues, trunk
// transmitters, Poisson traffic sources driven by a traffic matrix,
// per-link delay measurement on the 10-second period, the pluggable link
// metric (HN-SPF / D-SPF / min-hop), and the flooding of routing updates as
// real high-priority packets that consume trunk bandwidth.
//
// It is the experiment driver behind Table 1, Figure 1 and Figure 13.
package network

import (
	"fmt"
	"math"

	"repro/internal/flooding"
	"repro/internal/flowmodel"
	"repro/internal/node"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/stats"
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

// sampleInterval is the period of the link-utilization and cost series.
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
	Warmup sim.Time
	// ModuleFactory overrides the per-link cost module (nil = build from
	// Metric). Used by the ablation experiments to run modified HNMs.
	ModuleFactory func(l topology.Link) node.CostModule
	// Multipath enables equal-cost multipath forwarding (§4.5): packets
	// spread randomly over every first hop on a minimum-cost path. This is
	// the paper's "future work" remedy for large single flows.
	Multipath bool
	// Trace, when non-nil, receives loss/routing events (bounded ring).
	Trace *trace.Ring

	// Background, when non-nil, turns on the hybrid fluid/packet engine:
	// this matrix is modeled as fluid flows routed over the advertised
	// link costs (re-routed every measurement period) and superposed onto
	// each trunk's measured delay and sampled utilization, so the metric
	// modules see the combined load without a background packet ever being
	// scheduled. Foreground traffic (Matrix) stays packet-level. With a
	// nil Background the engine is bit-for-bit the pure packet simulator.
	Background *traffic.Matrix
}

// Network is a running simulation. Build with New, drive with Run/RunUntil,
// then read Report and the tracked series. Not safe for concurrent use.
type Network struct {
	cfg    Config
	kernel *sim.Kernel
	g      *topology.Graph
	ids    []topology.NodeID // every PSN's ID, ascending: the destinations of a matrix row
	psns   []*psn
	links  []*linkState
	// routers is the PSNs' shared table, the one link-state database: one
	// kernel, one goroutine drives them all (nil in BF1969 mode).
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
	measureFn    sim.Call
	dvExchangeFn sim.Call
	sampleFn     sim.Call

	// led books every user packet's fate from t = 0; its InFlight is
	// counted only at the snapshot (Conservation). win is the measured
	// window over the PSNs' meters and the links' utilization. ctrlSent,
	// ctrlConsumed and ctrlOutage count update copies enqueued, consumed and
	// destroyed by an outage, from t = 0.
	led                                node.Conservation
	win                                *node.Window
	ctrlSent, ctrlConsumed, ctrlOutage int64

	// In-flight propagation accounting: packets that have left a
	// transmitter and are on the wire awaiting the far-end handlePacket.
	propUser    int // user packets propagating
	propRouting int // routing packets propagating

	// updatesInFlight counts, by origin, the copies of its flooded updates
	// queued, on a transmitter or propagating: the convergence audit checks
	// an origin only while it is zero.
	updatesInFlight []int
}

type psn struct {
	node.PSN              // updating protocol; Router is nil in BF1969 mode
	lines    []*linkState // its out-links in Graph.Out order, so line i of its SPF tree is lines[i]
	dv       *dvState     // 1969 distance vector (nil otherwise)
	paths    sim.RNG      // multipath next-hop selection (Config.Multipath)
	dag      *spf.DAG     // multipath first hops over Router's tree (nil: stale, built at the next lookup)

	src         node.Source // its Poisson source over its matrix row
	sourceArmed bool        // a sourceFire chain is scheduled
}

// linkState is one directed link: the shared trunk model plus what only
// this engine keeps — the far end's latency, the flooded-cost view the
// auditors and the fluid layer read, and the tracked series.
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

	series     *stats.Series
	costSeries *stats.Series
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
	n.measureFn = func(t sim.Time, a any) { n.measure(a.(*psn), t) }
	n.dvExchangeFn = func(t sim.Time, a any) { n.dvExchange(a.(*psn), t) }
	n.sampleFn = func(t sim.Time, _ any) { n.sample(t) }

	// Per-link state and the shared initial cost database.
	initial := make([]float64, n.g.NumLinks())
	n.links = make([]*linkState, n.g.NumLinks())
	for i, l := range n.g.Links() {
		mod := cfg.ModuleFactory
		if mod == nil {
			kind := cfg.Metric
			if kind == node.BF1969 {
				// The 1969 mode routes by distance vector; the per-link
				// module is an unused placeholder.
				kind = node.MinHop
			}
			mod = func(l topology.Link) node.CostModule {
				return node.NewCostModule(kind, l.Type, l.PropDelay)
			}
		}
		ls := &linkState{
			Trunk:   node.NewTrunk(node.DefaultQueueLimit, mod(l), l.Type.Bandwidth()),
			link:    l,
			propLat: node.HopLatency(l),
		}
		n.links[i] = ls
		initial[i] = ls.Module.Cost()
		ls.lastFlooded = initial[i]
	}

	// PSNs with routers booted from the identical database.
	n.psns = make([]*psn, n.g.NumNodes())
	n.updatesInFlight = make([]int, n.g.NumNodes())
	n.ids = make([]topology.NodeID, n.g.NumNodes())
	for i := range n.ids {
		n.ids[i] = topology.NodeID(i)
	}
	if cfg.Metric != node.BF1969 {
		n.routers = spf.NewTable(n.g, n.ids, initial)
	}
	for i := range n.psns {
		id := topology.NodeID(i)
		p := &psn{
			PSN:   node.PSN{ID: id},
			lines: make([]*linkState, n.g.Degree(id)),
			src:   node.NewSource(cfg.Seed, id),
		}
		for j, l := range n.g.Out(id) {
			p.lines[j] = n.links[l]
		}
		if n.routers != nil { // else dvSetup below installs distance-vector state
			p.Router = n.routers.Router(i)
			if cfg.Multipath {
				p.paths = sim.NewRNG(cfg.Seed, i, node.StreamPaths)
			}
		}
		n.psns[i] = p
		p.src.SetRow(n.ids, cfg.Matrix.Row(id))
	}

	n.win = node.NewWindow(len(n.psns), func(i int) *node.PSN { return &n.psns[i].PSN },
		len(n.links), func(l int) *node.Trunk { return &n.links[l].Trunk })
	n.win.MinPathHops = n.matrixMinPath()

	if cfg.Metric == node.BF1969 {
		n.dvSetup()
	} else {
		n.scheduleMeasurement()
	}
	n.setupBackground()
	_, _ = n.kernel.ScheduleTailCallAt(sampleInterval, sim.MaxTailKey, n.sampleFn, nil)
	n.scheduleTraffic()
	// The window is open from boot; a warm-up's end opens a fresh one.
	if cfg.Warmup > 0 {
		// Fire-and-forget: warmup end is unconditional for the whole run.
		_ = n.kernel.Schedule(cfg.Warmup, func(now sim.Time) { n.win.Open(now, n.Conservation()) })
	}
	return n
}

// setupBackground builds the hybrid engine's fluid layer: the background
// matrix is routed over the last-flooded costs (what every converged PSN's
// database holds — so the fluid follows exactly the routes the packet
// engine would have used), assigned once at boot and re-assigned every
// measurement period. In BF1969 mode nothing floods, so the background
// stays on the boot-time min-hop routes; the hybrid mode is meant for the
// SPF metrics.
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

// multipathTol derives the near-equality tolerance from the cheapest link
// floor in this network: node.MultipathToleranceFraction of it, which is
// under the loop-freedom bound of half the minimum link cost.
func (n *Network) multipathTol() float64 {
	min := math.Inf(1)
	for _, ls := range n.links {
		if f := ls.Module.Floor(); f < min {
			min = f
		}
	}
	return node.MultipathToleranceFraction * min
}

// altNextHop picks the outgoing link toward dst, nil for none, in the two
// modes that do not forward on the SPF tree's one line: the distance vector's
// choice, or a random one among the equal-cost first hops when multipath is
// on. Those come from a DAG over the router's tree, rebuilt at the first
// lookup after the router accepts an update.
func (n *Network) altNextHop(p *psn, dst topology.NodeID) *linkState {
	nh := topology.NoLink
	if p.dv != nil {
		nh = p.dv.next[dst]
	} else {
		if p.dag == nil {
			p.dag = spf.ComputeDAG(p.Router.Tree(), p.Router.Cost, n.multipathTol())
		}
		if hops := p.dag.NextHops(dst); len(hops) == 1 {
			nh = hops[0]
		} else if len(hops) > 1 {
			nh = hops[p.paths.Intn(len(hops))]
		}
	}
	if nh == topology.NoLink {
		return nil
	}
	return n.links[nh]
}

// accept offers one update copy to the PSN's router, its own duplicate
// filter, and reports whether it was new; a new one drops the multipath DAG.
func (p *psn) accept(u *flooding.Update) bool {
	if !p.Router.Accept(u) {
		return false
	}
	p.dag = nil
	return true
}

// Kernel exposes the simulation clock for callers that schedule scenario
// events (link failures, matrix switches).
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Run advances the simulation to the given absolute time.
func (n *Network) Run(until sim.Time) { n.kernel.RunUntil(until) }

// TrackLink starts recording a per-sample utilization series for the link;
// call before Run. The series' X axis is seconds.
func (n *Network) TrackLink(l topology.LinkID) *stats.Series {
	ls := n.links[l]
	if ls.series == nil {
		lnk := ls.link
		ls.series = stats.NewSeries(fmt.Sprintf("%s->%s", n.g.Node(lnk.From).Name, n.g.Node(lnk.To).Name))
	}
	return ls.series
}

// TrackLinkCost records the link's advertised cost once per sample
// interval; call before Run.
func (n *Network) TrackLinkCost(l topology.LinkID) *stats.Series {
	ls := n.links[l]
	if ls.costSeries == nil {
		lnk := ls.link
		ls.costSeries = stats.NewSeries(fmt.Sprintf("cost %s->%s",
			n.g.Node(lnk.From).Name, n.g.Node(lnk.To).Name))
	}
	return ls.costSeries
}

// --- traffic generation -------------------------------------------------

func (n *Network) scheduleTraffic() {
	for _, p := range n.psns {
		if p.src.Rate <= 0 {
			continue
		}
		n.armSource(p)
	}
}

func (n *Network) armSource(p *psn) {
	p.sourceArmed = true
	// Fire-and-forget: the source chain parks itself via sourceArmed when
	// the matrix zeroes the rate, rather than being cancelled.
	_ = n.kernel.ScheduleCall(p.src.Gap(), n.sourceFireFn, p)
}

func (n *Network) sourceFire(p *psn, now sim.Time) {
	if p.src.Rate <= 0 {
		// The matrix switched this source off; the chain parks until
		// SetMatrix re-arms it.
		p.sourceArmed = false
		return
	}
	pkt := n.pool.Get()
	p.src.Emit(pkt, now)
	n.led.Offered++
	p.Meter.Offer(pkt)
	n.handlePacket(p, pkt, now)
	// Fire-and-forget: see armSource.
	_ = n.kernel.ScheduleCall(p.src.Gap(), n.sourceFireFn, p)
}

// --- forwarding ---------------------------------------------------------

// handlePacket processes a packet at a PSN: deliver, drop, or enqueue on
// the next-hop link per the PSN's current SPF tree.
func (n *Network) handlePacket(p *psn, pkt *node.Packet, now sim.Time) {
	if pkt.IsRouting() {
		if pkt.Vector != nil {
			n.dvReceive(p, pkt)
		} else {
			n.handleUpdate(p, pkt, now)
		}
		// Routing consumption: the update's payload lives on (flood copies
		// share it); the carrying packet is done.
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
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketLooped, Node: p.ID, Link: topology.NoLink})
		n.pool.Put(pkt)
		return
	}
	// The single SPF tree hop is a line number: the PSN's own lines answer it.
	// Distance vectors and multipath choose elsewhere.
	var nh *linkState
	if p.Router == nil || n.cfg.Multipath {
		nh = n.altNextHop(p, pkt.Dst)
	} else if i := p.Router.Tree().NextLine(pkt.Dst); i >= 0 {
		nh = p.lines[i]
	}
	if nh == nil || nh.Down() {
		n.led.NoRouteDrops++
		link := topology.NoLink
		if nh != nil {
			link = nh.link.ID
		}
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketNoRoute, Node: p.ID, Link: link})
		n.pool.Put(pkt)
		return
	}
	n.enqueue(nh, pkt, now)
}

func (n *Network) enqueue(ls *linkState, pkt *node.Packet, now sim.Time) {
	pkt.Enqueued = now
	if !ls.Queue.Push(pkt) {
		n.led.BufferDrops++
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketDropped, Node: ls.link.From, Link: ls.link.ID})
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
// packets are not counted — the flood refresh regenerates them — but user
// packets enter the outage-drop class so conservation stays exact. Either way the packet's life ends here.
func (n *Network) dropOutage(ls *linkState, pkt *node.Packet, now sim.Time) {
	if !pkt.IsRouting() {
		n.led.OutageDrops++
		n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.PacketOutage, Node: ls.link.From, Link: ls.link.ID})
	} else if pkt.Update != nil {
		n.ctrlOutage++
		n.updatesInFlight[pkt.Update.Origin]--
	}
	n.pool.Put(pkt)
}

// --- routing updates ----------------------------------------------------

func (n *Network) handleUpdate(p *psn, pkt *node.Packet, now sim.Time) {
	n.ctrlConsumed++
	n.updatesInFlight[pkt.Update.Origin]--
	if p.accept(pkt.Update) {
		p.Flood(n.g, n, pkt.Update, pkt.Arrival, pkt.Created, now)
	}
}

// Send enqueues one copy of u on link l, one fresh routing packet: the
// network's node.Egress. A routing packet goes to the head of the queue and
// is never refused.
func (n *Network) Send(l topology.LinkID, u *flooding.Update, created, now sim.Time) {
	pkt := n.pool.Get()
	pkt.SizeBits = u.SizeBits()
	pkt.Created, pkt.Update, pkt.Arrival = created, u, l
	n.ctrlSent++
	n.updatesInFlight[u.Origin]++
	n.enqueue(n.links[l], pkt, now)
}

// originate floods p's current link costs to the whole network and applies
// them locally. In BF1969 mode there is no flooding: the periodic vector
// exchange carries all routing information.
func (n *Network) originate(p *psn, now sim.Time) {
	if p.dv != nil {
		return
	}
	// The costs are fresh because the update, and every router accepting it,
	// keeps them.
	costs := make([]float64, len(p.lines))
	for i, ls := range p.lines {
		costs[i] = ls.Advertised()
		ls.lastFlooded = costs[i]
	}
	u := p.NextUpdate(n.g, costs, now)
	p.accept(u)
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.UpdateOriginate, Node: p.ID, Link: topology.NoLink})
	p.Flood(n.g, n, u, topology.NoLink, now, now)
}

// --- measurement periods ------------------------------------------------

func (n *Network) scheduleMeasurement() {
	period := node.MeasurementPeriod
	for _, p := range n.psns {
		first := node.FirstMeasurement(p.ID, len(n.psns), period)
		p.LastOriginated = node.BootOriginated(p.ID, first, period)
		// Fire-and-forget: measurement periods run for the lifetime of the
		// network; down links skip inside measure instead of cancelling.
		_ = n.kernel.ScheduleCall(first, n.measureFn, p)
	}
}

func (n *Network) measure(p *psn, now sim.Time) {
	report := false
	for _, ls := range p.lines {
		avg := ls.Meas.Take()
		if ls.Down() {
			continue
		}
		if n.fluid != nil {
			avg = n.superpose(ls, avg)
		}
		if _, rep := ls.Module.Update(avg); rep {
			report = true
		}
	}
	// Reliability refresh: force an update at least every 50 s.
	if report || p.RefreshDue(now) {
		n.originate(p, now)
	}
	// Fire-and-forget: see scheduleMeasurement.
	_ = n.kernel.ScheduleCall(node.MeasurementPeriod, n.measureFn, p)
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

// sample takes every link's utilization sample, extends the tracked series
// and re-arms itself a sampleInterval later. It is a tail event, after
// every other event of its instant (sim.Kernel.ScheduleTailCallAt), so a
// transmission ending on the instant counts in its sample, as on the
// sharded engine. Sampling runs for the lifetime of the network.
func (n *Network) sample(now sim.Time) {
	for _, ls := range n.links {
		extra := 0.0
		if n.fluid != nil && !ls.Down() {
			// The fluid background occupies capacity the transmitter
			// never sees; a dead trunk's stranded fluid counts nothing
			// until the next epoch re-routes it.
			extra = n.fluid.LinkBPS(ls.link.ID) / ls.Bandwidth
		}
		u := n.win.Sample(ls.link.ID, sampleInterval, extra)
		if ls.series != nil {
			ls.series.Add(now.Seconds(), u)
		}
		if ls.costSeries != nil {
			ls.costSeries.Add(now.Seconds(), ls.Module.Cost())
		}
	}
	_, _ = n.kernel.ScheduleTailCallAt(now+sampleInterval, sim.MaxTailKey, n.sampleFn, nil)
}

// Report composes the measured window (node.Window.Report) at the current
// simulation time, with the update copies' counters from t = 0.
func (n *Network) Report() Report {
	r := n.win.Report(n.cfg.Metric.String(), n.kernel.Now(), n.Conservation())
	r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops = n.ctrlSent, n.ctrlConsumed, n.ctrlOutage
	for _, c := range n.updatesInFlight {
		r.CtrlInFlight += int64(c)
	}
	return r
}

// matrixMinPath is the current matrix's node.MinPathHops.
func (n *Network) matrixMinPath() float64 {
	return node.MinPathHops(n.g, func(s topology.NodeID) ([]topology.NodeID, []float64) {
		return n.ids, n.cfg.Matrix.Row(s)
	})
}

// --- link failures ------------------------------------------------------

// SetTrunkDown takes both directions of the trunk containing link l out of
// service and floods the news from both ends. Packets on the transmitters
// and in the output queues are destroyed by the outage and counted as
// outage drops — they do not vanish from the conservation ledger, and no
// stale completion event survives to double-start a transmitter after a
// repair. A no-op on a trunk that is already down.
func (n *Network) SetTrunkDown(l topology.LinkID) {
	if n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.LinkDown, Node: n.g.Link(l).From, Link: l})
	for _, id := range []topology.LinkID{l, n.g.Link(l).Reverse()} {
		ls := n.links[id]
		// The packet on the transmitter and the backlog are lost to the
		// outage (see Trunk.Fail); each is booked as an outage drop.
		ls.Fail(func(pkt *node.Packet) { n.dropOutage(ls, pkt, now) })
	}
	n.originate(n.psns[n.g.Link(l).From], now)
	n.originate(n.psns[n.g.Link(l).To], now)
}

// SetTrunkUp returns the trunk to service. The metric modules Reset, so an
// HN-SPF link comes back at its maximum cost and eases in (§5.4). Both ends
// flood the repair and resynchronise each other over the trunk
// (node.PSN.Resync). A no-op on a trunk that is already up.
func (n *Network) SetTrunkUp(l topology.LinkID) {
	if !n.links[l].Down() {
		return
	}
	now := n.kernel.Now()
	n.cfg.Trace.Add(trace.Event{At: now, Kind: trace.LinkUp, Node: n.g.Link(l).From, Link: l})
	rev := n.g.Link(l).Reverse()
	n.links[l].Restore()
	n.links[rev].Restore()
	// Flooding the repair enqueues the updates on the restored trunk itself,
	// which restarts its transmitter.
	from, to := n.psns[n.g.Link(l).From], n.psns[n.g.Link(l).To]
	n.originate(from, now)
	n.originate(to, now)
	from.Resync(n, l, now)
	to.Resync(n, rev, now)
}

// LinkIsDown reports whether the link is currently out of service.
func (n *Network) LinkIsDown(l topology.LinkID) bool { return n.links[l].Down() }

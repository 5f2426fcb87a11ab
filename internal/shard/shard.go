// Package shard runs one discrete-event simulation partitioned across N
// per-shard sim.Kernels with conservative synchronization, producing
// byte-identical output for every shard count.
//
// The graph is split by a deterministic partitioner (see partition.go)
// that prefers to cut long-haul trunks; the minimum node.HopLatency over the
// cut trunks is the conservative lookahead L. The runner repeats a
// barrier round: deliver pending cross-shard arrivals into the idle target
// kernels, agree on the earliest pending event time tmin across kernels,
// then let every kernel run the window [tmin, tmin+L-1] concurrently. An
// event inside the window can only generate cross-shard arrivals at or
// after tmin+L — strictly beyond the window — so no kernel can ever
// receive an arrival in its past, and each window's event population is
// independent of how the previous windows were cut (see DESIGN.md for the
// proof sketch).
//
// Determinism across shard counts and goroutine schedules is by
// construction, resting on three rules:
//
//  1. every model-scheduled delay except an arrival's is >= 1 tick, so a
//     node never has two of its own chain events collide at the instant
//     that scheduled them;
//  2. cross-node interaction happens only through arrivals: a transmission
//     completion schedules the packet's arrival node.HopLatency later (or
//     puts it in the cross-shard outbox, whose target schedules it at the
//     barrier) as a tail event keyed by the link it crossed
//     (sim.Kernel.ScheduleTailCallAt). No two arrivals share a (time, link),
//     so a node takes the arrivals of an instant after every other event
//     there, in link order, whichever side of a shard boundary scheduled
//     them;
//  3. all randomness comes from per-node value-type streams (node.Source
//     and the destination-set stream: sim.RNG streams keyed by seed, node
//     and stream, the unsharded engine's too), all floating point state is
//     node- or link-local, and merged output is sorted by (time, node,
//     per-node sequence).
//
// Under those rules the event order observed by any single node — and
// therefore its random draws, its float accumulations, and its trace
// records — is a pure function of the model, not of the partition. The
// rules are internal/network's too: a one-shard Sim and an unsharded
// network offered Matrix agree packet for packet.
package shard

import (
	"fmt"
	"math"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fault is one scripted trunk state change.
type Fault struct {
	Trunk int
	At    sim.Time
	Up    bool // false takes the trunk down, true restores it
}

// Config parameterizes a sharded simulation.
type Config struct {
	Graph  *topology.Graph
	Shards int
	Seed   int64

	// Traffic: every node offers PktRate packets/second, each to one of
	// Dests destinations drawn once per node. With DestRadius > 0 the
	// destinations are drawn from the node's <=DestRadius-hop
	// neighbourhood (locality-weighted traffic); otherwise uniformly.
	PktRate    float64
	Dests      int
	DestRadius int

	QueueLimit int             // per-link output buffer (default node.DefaultQueueLimit)
	Metric     node.MetricKind // cost module for the per-link metric readings

	// Adaptive switches routing from the static table to the full
	// adaptive plane (see adaptive.go): each measurement period feeds the
	// cost modules, significant changes flood routing updates over the
	// simulated trunks (crossing shard boundaries on the wires like any
	// other traffic), and every node forwards by its own incremental-SPF
	// tree over the flooded costs.
	Adaptive bool

	// Partition, when non-nil, overrides the deterministic partitioner with
	// an explicit node→shard assignment (len == NumNodes, values in
	// [0, Shards), every shard non-empty). Any assignment must produce
	// identical observables; the custody torture test exercises random cuts
	// through exactly this knob.
	Partition []int

	MeasurePeriod sim.Time // link measurement interval (default node.MeasurementPeriod)
	MeasureSample int      // trace metric readings for nodes with id%sample == 0; 0 disables
	TraceDrops    bool     // record a trace line per dropped packet

	// Faults scripts trunk failures and repairs; they need Adaptive, since a
	// PSN hears of a line's state only through flooded updates (§2.2).
	Faults []Fault
}

// Sim is a sharded simulation instance.
type Sim struct {
	cfg       Config
	g         *topology.Graph
	part      []int
	lookahead sim.Time
	hasCross  bool
	routes    *routing // static plane only
	shards    []*shardState
	nodeAt    []*lnode // by global NodeID
	linkAt    []*llink // by global LinkID
	wires     [][]wire // pending cross-shard arrivals, by target shard
	win       *node.Window
	sampled   sim.Time // the last utilization sample's instant (0: none yet)
	barrier   BarrierStats
	fired     []uint64 // each kernel's Fired() when the current window opened

	// During a multi-shard Run: each worker's window-deadline channel, and
	// the channel every worker signals on when it reaches a deadline.
	deadlines []chan sim.Time
	done      chan struct{}
}

// Validate reports why New would refuse the configuration, without building
// anything: every check New makes except that each node has somewhere to
// send, which needs the destination sets New draws.
func (cfg Config) Validate() error {
	if cfg.Graph == nil {
		return fmt.Errorf("shard: nil graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("shard: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Shards > cfg.Graph.NumNodes() {
		return fmt.Errorf("shard: %d shards for %d nodes", cfg.Shards, cfg.Graph.NumNodes())
	}
	if n := cfg.Graph.NumLinks(); n > sim.MaxTailKey+1 {
		return fmt.Errorf("shard: %d links, more than the %d arrival keys a kernel orders", n, sim.MaxTailKey+1)
	}
	if err := staticPlaneFits(cfg.Graph.NumNodes(), cfg.Adaptive); err != nil {
		return err
	}
	if !(cfg.PktRate > 0) || math.IsInf(cfg.PktRate, 1) { // !(x > 0) is true for NaN
		return fmt.Errorf("shard: PktRate must be positive and finite, got %v", cfg.PktRate)
	}
	if cfg.Dests < 1 {
		return fmt.Errorf("shard: Dests must be >= 1")
	}
	if cfg.DestRadius < 0 { // 0 draws destinations uniformly
		return fmt.Errorf("shard: DestRadius must be >= 0, got %d", cfg.DestRadius)
	}
	if cfg.QueueLimit < 0 {
		return fmt.Errorf("shard: QueueLimit must be >= 0 (0 = default), got %d", cfg.QueueLimit)
	}
	if cfg.MeasureSample < 0 { // 0 disables sampling
		return fmt.Errorf("shard: MeasureSample must be >= 0, got %d", cfg.MeasureSample)
	}
	if cfg.Metric == node.BF1969 {
		return fmt.Errorf("shard: BF1969 has no cost module; use HNSPF, DSPF or MinHop")
	}
	if cfg.MeasurePeriod < 0 {
		return fmt.Errorf("shard: MeasurePeriod must be >= 0 (0 = default), got %v", cfg.MeasurePeriod)
	}
	g := cfg.Graph
	if len(cfg.Faults) > 0 && !cfg.Adaptive {
		return fmt.Errorf("shard: Faults need Adaptive: static routes flood nothing, so no PSN would hear of a failure")
	}
	for _, f := range cfg.Faults {
		if f.Trunk < 0 || f.Trunk >= g.NumTrunks() {
			return fmt.Errorf("shard: fault on unknown trunk %d", f.Trunk)
		}
		if f.At < 1 {
			return fmt.Errorf("shard: fault at %v precedes the run", f.At)
		}
	}
	if cfg.Partition != nil {
		if len(cfg.Partition) != g.NumNodes() {
			return fmt.Errorf("shard: Partition has %d entries for %d nodes",
				len(cfg.Partition), g.NumNodes())
		}
		used := make([]bool, cfg.Shards)
		for id, p := range cfg.Partition {
			if p < 0 || p >= cfg.Shards {
				return fmt.Errorf("shard: Partition[%d] = %d out of range [0,%d)", id, p, cfg.Shards)
			}
			used[p] = true
		}
		for p, u := range used {
			if !u {
				return fmt.Errorf("shard: Partition leaves shard %d empty", p)
			}
		}
	}
	return nil
}

// New builds a sharded simulation. The configuration and seed fully
// determine every subsequent observable: trace, report and ledgers are
// identical for any Shards value.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = node.DefaultQueueLimit
	}
	if cfg.MeasurePeriod == 0 {
		cfg.MeasurePeriod = node.MeasurementPeriod
	}
	g := cfg.Graph

	s := &Sim{cfg: cfg, g: g}
	if cfg.Partition != nil {
		s.part = append([]int(nil), cfg.Partition...)
	} else {
		s.part = Partition(g, cfg.Shards)
	}
	s.lookahead, s.hasCross = CutLookahead(g, s.part)
	s.nodeAt = make([]*lnode, g.NumNodes())
	s.linkAt = make([]*llink, g.NumLinks())
	s.wires = make([][]wire, cfg.Shards)
	s.fired = make([]uint64, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shardState{s: s, id: i, kernel: sim.New()}
		sh.bind()
		s.shards = append(s.shards, sh)
	}

	var balls *topology.Search
	if cfg.DestRadius > 0 {
		balls = topology.NewSearch(g)
	}
	for id := 0; id < g.NumNodes(); id++ {
		s.buildNode(topology.NodeID(id), balls)
		if len(s.nodeAt[id].src.Dests()) == 0 {
			return nil, fmt.Errorf("shard: node %d (%s) has nowhere to send: its destination set is empty", id, g.Node(topology.NodeID(id)).Name)
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		s.buildLinks(topology.NodeID(id))
	}
	if cfg.Adaptive {
		s.bootAdaptive() // per-node SPF over the modules' initial costs
	} else {
		var err error
		if s.routes, err = buildRouting(g, s.DestsOf); err != nil {
			return nil, err
		}
	}
	s.win = node.NewWindow(len(s.nodeAt), func(i int) *node.PSN { return &s.nodeAt[i].PSN },
		len(s.linkAt), func(l int) *node.Trunk { return &s.linkAt[l].Trunk })
	s.win.MinPathHops = node.MinPathHops(g, func(id topology.NodeID) ([]topology.NodeID, []float64) {
		ds := s.nodeAt[id].src.Dests()
		return ds, s.row(ds)
	})
	// Setup events in one canonical global order (ascending node, then the
	// node's measurement tick, source, and fault events): within a shard,
	// relative sequence numbers of same-instant setup events are then
	// independent of the partition.
	for id := 0; id < g.NumNodes(); id++ {
		n := s.nodeAt[id]
		sh := n.sh
		first := node.FirstMeasurement(n.ID, g.NumNodes(), cfg.MeasurePeriod)
		n.LastOriginated = node.BootOriginated(n.ID, first, cfg.MeasurePeriod)
		_ = mustCallAt(sh.kernel, first, sh.measureCall, n)
		_ = mustCallAt(sh.kernel, n.src.Gap(), sh.sourceCall, n)
		for fi := range cfg.Faults {
			f := &cfg.Faults[fi]
			for _, lid := range []topology.LinkID{topology.LinkID(2 * f.Trunk), topology.LinkID(2*f.Trunk + 1)} {
				ls := s.linkAt[lid]
				if ls.l.From == topology.NodeID(id) {
					_ = mustCallAt(sh.kernel, f.At, sh.faultCall, &faultEv{ls: ls, up: f.Up})
				}
			}
		}
	}
	return s, nil
}

// mustCallAt is the one way the shard model schedules anything but an
// arrival, so it is where rule 1 of the package comment is held: the event
// sits at least one tick after the instant scheduling it, whatever the delay
// was computed from. The kernel takes a 0-tick delay; a node's event order
// would then depend on the partition. A runner bug, never a caller's: it
// panics.
func mustCallAt(k *sim.Kernel, at sim.Time, fn sim.Call, arg any) sim.Handle {
	if at <= k.Now() {
		panic(fmt.Sprintf("shard: event scheduled for %v at %v; every non-arrival delay must be at least one tick", at, k.Now()))
	}
	return k.ScheduleCall(at-k.Now(), fn, arg)
}

// Lookahead returns the conservative lookahead (the minimum propagation
// delay over cut trunks), or 0 when no trunk is cut.
func (s *Sim) Lookahead() sim.Time {
	if !s.hasCross {
		return 0
	}
	return s.lookahead
}

// Fired returns the total number of kernel events executed across shards.
func (s *Sim) Fired() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.kernel.Fired()
	}
	return n
}

// KernelStats sums the shards' kernel counters: every count, the slots and
// the buckets add up across shards; Width is the widest shard's. Like
// BarrierStats it depends on the configuration and Run's deadlines alone and
// enters no Report, trace or digest. Call it between Run invocations.
func (s *Sim) KernelStats() sim.Stats {
	var t sim.Stats
	for _, sh := range s.shards {
		k := sh.kernel.Stats()
		t.Scheduled += k.Scheduled
		t.Fired += k.Fired
		t.Cancelled += k.Cancelled
		t.Rejected += k.Rejected
		t.Retunes += k.Retunes
		t.LadderPops += k.LadderPops
		t.Sorted += k.Sorted
		t.Slots += k.Slots
		t.Buckets += k.Buckets
		t.Width = max(t.Width, k.Width)
	}
	return t
}

// BarrierStats counts what Run's serial section did between windows. The
// counts are a function of the configuration, the partition and the deadlines
// Run was given — never of GOMAXPROCS or the goroutine schedule — and enter no
// Report, trace or digest.
type BarrierStats struct {
	Windows          int64 // barrier windows run; those not cut by the lookahead ran to Run's deadline
	EndedByLookahead int64 // cut at tmin+lookahead-1: the cut's propagation delay bounded the window
	WiresDelivered   int64 // cross-shard arrivals injected: the sum of the ledgers' Imported + CtrlImported

	// CriticalEvents sums, over windows, the events of the shard that fired
	// the most in the window: the events a window must wait for however many
	// cores run it. Fired()/CriticalEvents is the speed-up a barrier that cost
	// nothing could reach.
	CriticalEvents int64
}

// BarrierStats returns the barrier counters so far. Call it between Run
// invocations.
func (s *Sim) BarrierStats() BarrierStats { return s.barrier }

// Run advances the simulation to the absolute time until. It may be called
// repeatedly with increasing deadlines. With more than one shard, the
// kernels run on one worker goroutine per shard that lives as long as the
// call.
//
// Once a second the runner samples every link's utilization between
// windows, when every kernel is idle: no window runs past a sample's
// instant, and the sample follows every event of it, as internal/network's
// tail-event sampler does. It fires no event, so the events a run fires
// stay a function of the model alone.
func (s *Sim) Run(until sim.Time) {
	if len(s.shards) > 1 {
		defer s.startWorkers()()
	}
	for {
		s.deliverWires()
		tmin, ok := s.nextEventTime()
		if !ok || tmin > until {
			break
		}
		s.sampleBefore(tmin)
		w := min(until, s.sampled+sim.Second)
		s.barrier.Windows++
		if b := tmin + s.lookahead - 1; s.hasCross && b < w {
			w = b
			s.barrier.EndedByLookahead++
		}
		for i, sh := range s.shards {
			s.fired[i] = sh.kernel.Fired()
		}
		s.runWindow(w)
		s.collectOutboxes()
		s.countWindow()
	}
	// No pending event at or before until remains; advance every clock.
	s.runWindow(until)
	s.sampleBefore(until + 1)
}

// sampleBefore takes every utilization sample due before t, each over every
// link in link order (node.Window.Sample).
func (s *Sim) sampleBefore(t sim.Time) {
	for ; s.sampled+sim.Second < t; s.sampled += sim.Second {
		for l := range s.linkAt {
			s.win.Sample(topology.LinkID(l), sim.Second, 0)
		}
	}
}

// countWindow adds the busiest shard's events in the window just run, from
// each kernel's Fired() delta, to CriticalEvents.
func (s *Sim) countWindow() {
	var critical uint64
	for i, sh := range s.shards {
		critical = max(critical, sh.kernel.Fired()-s.fired[i])
	}
	s.barrier.CriticalEvents += int64(critical)
}

// nextEventTime returns the earliest pending event time across shards.
func (s *Sim) nextEventTime() (sim.Time, bool) {
	var tmin sim.Time
	found := false
	for _, sh := range s.shards {
		if t, ok := sh.kernel.NextEventTime(); ok && (!found || t < tmin) {
			tmin, found = t, true
		}
	}
	return tmin, found
}

// startWorkers starts one goroutine per shard for the length of a Run. Each
// receives window deadlines on its own channel, runs its kernel to each and
// signals done. Kernels share no mutable state — the serial section between
// windows exchanges packets only while every worker waits for a deadline —
// and the channels order the two sides: a deadline send happens before the
// window it opens, and a worker's done send before the receive that ends the
// window. So the workers race on nothing, and a window's results are the
// same however they are scheduled. The returned stop closes the deadline
// channels and returns once every worker has left its loop.
func (s *Sim) startWorkers() (stop func()) {
	done := make(chan struct{}, len(s.shards)) // one send per worker per window
	s.done = done
	s.deadlines = make([]chan sim.Time, len(s.shards))
	for i, sh := range s.shards {
		deadline := make(chan sim.Time)
		s.deadlines[i] = deadline
		go func() {
			for w := range deadline {
				sh.kernel.RunUntil(w)
				done <- struct{}{}
			}
			done <- struct{}{}
		}()
	}
	return func() {
		for _, deadline := range s.deadlines {
			close(deadline)
		}
		for range s.deadlines {
			<-done
		}
		s.deadlines, s.done = nil, nil
	}
}

// runWindow runs every kernel to the window deadline: on the caller when
// there is one shard, else on the workers, waiting for all of them.
func (s *Sim) runWindow(w sim.Time) {
	if len(s.shards) == 1 {
		s.shards[0].kernel.RunUntil(w)
		return
	}
	for _, deadline := range s.deadlines {
		deadline <- w
	}
	for range s.deadlines {
		<-s.done
	}
}

// deliverWires injects the pending cross-shard arrivals into their target
// kernels. Every kernel is idle and every arrival time lies strictly
// beyond every kernel clock (the lookahead guarantee), so the injections
// are ordinary future events.
func (s *Sim) deliverWires() {
	for target := range s.wires {
		ws := s.wires[target]
		sh := s.shards[target]
		for i := range ws {
			sh.importWire(&ws[i])
		}
		s.barrier.WiresDelivered += int64(len(ws))
		s.wires[target] = ws[:0]
	}
}

// collectOutboxes routes every shard's exported packets to their target
// shards' pending-wire lists.
func (s *Sim) collectOutboxes() {
	for _, sh := range s.shards {
		for i := range sh.outbox {
			w := sh.outbox[i]
			t := s.part[s.g.Link(w.link).To]
			s.wires[t] = append(s.wires[t], w)
		}
		sh.outbox = sh.outbox[:0]
	}
}

// DestsOf returns the destination set, ascending, the traffic model drew for
// a node. The caller must not modify it.
func (s *Sim) DestsOf(id topology.NodeID) []topology.NodeID { return s.nodeAt[id].src.Dests() }

// LinkCost returns the cost currently advertised by the link's metric
// module; the checker's shard differential samples it at every checkpoint
// and compares the series across shard counts.
func (s *Sim) LinkCost(l topology.LinkID) float64 { return s.linkAt[l].Module.Cost() }

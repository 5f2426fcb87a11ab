// Package node provides the PSN-side model both packet engines run:
// packets and their size law, the finite FIFO output queue with drop
// accounting, the per-link delay-measurement accumulator of §2.2 ("For
// every packet the PSN receives and forwards, it measures queueing and
// processing delay to which it adds tabled values of transmission and
// propagation delay... it averages this total delay over a ten-second
// period"), the cost-module abstraction that lets a network run with the
// HNM, the delay metric, or min-hop, the Trunk that ties queue, transmitter,
// measurement and module into one state machine with its fail/repair
// transitions, and the Conservation ledger the engines report into.
//
// It also holds the routing protocol both engines run, behind one seam
// (psn.go: PSN, over an engine's Egress): Rosen's updating protocol
// (flood.go), which originates, floods and resynchronises routing updates,
// or the 1969 distance vector (distvec.go); and the one convergence audit
// (AuditConvergence).
//
// internal/network (one kernel) and internal/shard (one kernel per shard
// behind a conservative barrier) wire these into their event loops;
// forwarding and packet construction stay with the engines.
package node

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/flooding"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MeasurementPeriod is the link-cost measurement interval: "it averages
// this total delay over a ten-second period".
const MeasurementPeriod = 10 * sim.Second

// MaxUpdateInterval is the reliability refresh (§2.2): "the maximum time
// between routing updates for each PSN is 50 seconds".
const MaxUpdateInterval = 50 * sim.Second

// BootOriginated is the origination time a PSN booted into a running
// network starts from: the one that makes its first refresh fall due at its
// measurement 1 + id mod k, k the periods in MaxUpdateInterval (1 + id mod 5
// at 10 s). first is the PSN's first measurement, period the interval
// between measurements. It staggers the refreshes by node ID across the
// 50 s interval, as the engines stagger measurement across a period, so
// each period holds about 1/k of them.
func BootOriginated(id topology.NodeID, first, period sim.Time) sim.Time {
	k := (MaxUpdateInterval + period - 1) / period
	return first + sim.Time(int64(id)%int64(k))*period - MaxUpdateInterval
}

// ProcessingDelay is the fixed per-packet PSN processing time.
const ProcessingDelay = 500 * sim.Microsecond

// HopLatency is the time from a transmission's end on link l to the packet's
// arrival at the far PSN: the link's propagation delay plus ProcessingDelay.
// It is at least ProcessingDelay, so every hop takes time.
func HopLatency(l topology.Link) sim.Time {
	return sim.FromSeconds(l.PropDelay) + ProcessingDelay
}

// DownCost is the cost flooded for a dead link: large enough that no
// finite alternative ever loses to it, finite so SPF arithmetic stays
// well-defined.
const DownCost = 1e9

// MaxHops is the forwarding TTL: a packet that has crossed this many links
// is the victim of a transient routing loop and is dropped (and counted).
const MaxHops = 64

// DefaultQueueLimit is the per-trunk output buffer in packets.
const DefaultQueueLimit = 40

// User packet sizes are exponential with mean MeanPktBits, clamped to
// [MinPktBits, MaxPktBits] (the ARPANET's single-packet message range).
const (
	MeanPktBits = 600.0
	MinPktBits  = 100.0
	MaxPktBits  = 8000.0
)

// clampedMeanPktBits is the true mean of the clamped size distribution:
// E[clamp(X,a,b)] = a + λ(e^{-a/λ} - e^{-b/λ}) for X ~ Exp(λ).
var clampedMeanPktBits = MinPktBits +
	MeanPktBits*(math.Exp(-MinPktBits/MeanPktBits)-math.Exp(-MaxPktBits/MeanPktBits))

// ClampedMeanPktBits is the realized mean user packet size in bits — the
// conversion factor between a packets-per-second rate and a traffic-matrix
// bps entry. A source rate must divide by this, not by the nominal
// MeanPktBits, or offered bits run ~1.3% above the traffic matrix.
func ClampedMeanPktBits() float64 { return clampedMeanPktBits }

// Packet is one message or routing update moving through the network.
type Packet struct {
	Seq      uint64          // Source.Emit's or PSN.CtrlSeq's number, for drop trace events
	Src, Dst topology.NodeID // endpoints (user packets)
	SizeBits float64
	Created  sim.Time // when generated at the source
	Enqueued sim.Time // when placed on the current output queue
	Hops     int      // links traversed so far
	MinHops  int      // the fewest links from Src to Dst (user packets), set at Emit

	// Routing updates are flooded at high priority and are never user
	// traffic; Update is non-nil exactly for them. Vector is the 1969
	// distance-vector exchange payload (non-nil only in BF1969 mode).
	Update  *flooding.Update
	Vector  *Vector
	Arrival topology.LinkID // link the packet arrived on (NoLink at origin)

	poolNext *Packet // free-list link; non-nil only while pooled
}

// PacketPool recycles Packets through an intrusive free-list so a long run
// allocates no packet after warm-up. A packet is released at the terminal
// sites the conservation ledger enumerates (delivered, each drop class,
// routing consumption) — but the ledger counts packets, not pointers, so the
// pool guards the pointer itself: Put leaves poison in the packet and Get
// expects to find it intact. A second release and a write after release
// panic by name, from any package at any call depth, and a read after release
// gets the poison, not the zeros of a fresh packet.
//
// Not safe for concurrent use; each Network owns one.
type PacketPool struct {
	free *Packet
}

// Get returns a zeroed packet, recycling a released one when available.
func (pp *PacketPool) Get() *Packet {
	p := pp.free
	if p == nil {
		return &Packet{} // pool refill: the fresh packet is recycled forever after
	}
	if !p.poisoned() {
		panic(fmt.Sprintf("node: pooled packet written after release: %+v", *p))
	}
	pp.free = p.poolNext
	*p = Packet{}
	return p
}

// Put releases a packet back to the pool, poisoning every field so no state
// can leak into its next life: the size becomes NaN, which sim.FromSeconds
// refuses by name, the endpoints and the arrival link index nothing, time and
// hops run backwards. Releasing the same packet twice panics — that would
// silently alias two live packets later — wherever the packet sits in the
// free list: its size says it is pooled, and every live packet's is a number.
func (pp *PacketPool) Put(p *Packet) {
	if math.IsNaN(p.SizeBits) {
		panic("node: packet released twice")
	}
	// Field by field: assigning a Packet literal goes through a stack copy and
	// a typed move, four times the cost on the per-packet path.
	p.Seq, p.Src, p.Dst, p.SizeBits = math.MaxUint64, topology.NoNode, topology.NoNode, math.NaN()
	p.Created, p.Enqueued, p.Hops, p.MinHops = -1, -1, -1, -1
	p.Update, p.Vector, p.Arrival, p.poolNext = nil, nil, topology.NoLink, pp.free
	pp.free = p
}

// poisoned reports whether every field still holds what Put left there.
func (p *Packet) poisoned() bool {
	return p.Seq == math.MaxUint64 && p.Src == topology.NoNode && p.Dst == topology.NoNode && math.IsNaN(p.SizeBits) &&
		p.Created == -1 && p.Enqueued == -1 && p.Hops == -1 && p.MinHops == -1 && p.Update == nil && p.Vector == nil &&
		p.Arrival == topology.NoLink
}

// IsRouting reports whether the packet carries routing control traffic (a
// flooded SPF update or a distance-vector exchange).
func (p *Packet) IsRouting() bool { return p.Update != nil || p.Vector != nil }

// Queue is a finite FIFO output queue for one link. Routing updates enter
// at the front (the PSN processes and forwards them at high priority,
// §3.2 factor 3) and are never dropped; user packets are dropped when the
// buffer is full — the congestion signal of Figure 13.
//
// The store is a ring buffer: head-insert for routing packets and Pop are
// O(1), where the previous slice implementation shifted every element on
// both paths. The user-packet count is tracked incrementally so the limit
// check no longer scans the queue. The capacity is a power of two so index
// wrapping is a mask, not a division — Push/Pop are on the per-packet hot
// path of every trunk.
type Queue struct {
	limit int // maximum queued user packets
	buf   []*Packet
	mask  int // len(buf)-1; len(buf) is always a power of two
	head  int // index of the front packet
	n     int // packets in the queue (all classes)
	users int // user packets in the queue
}

// NewQueue creates a queue holding at most limit user packets.
func NewQueue(limit int) *Queue {
	if limit <= 0 {
		panic("node: queue limit must be positive")
	}
	return &Queue{limit: limit}
}

// grow doubles the ring, linearizing the contents. Only routing packets can
// push the length past the user limit, so growth is rare.
// Allocates: queue doubling is amortized O(1) per push
func (q *Queue) grow() {
	capacity := len(q.buf) * 2
	if capacity == 0 {
		capacity = 16
	}
	buf := make([]*Packet, capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&q.mask]
	}
	q.buf = buf
	q.mask = capacity - 1
	q.head = 0
}

// Push enqueues a packet and reports whether it was accepted. Routing
// packets are placed at the head and always accepted.
func (q *Queue) Push(p *Packet) bool {
	if p.IsRouting() {
		if q.n == len(q.buf) {
			q.grow()
		}
		q.head = (q.head - 1) & q.mask
		q.buf[q.head] = p
		q.n++
		return true
	}
	if q.users >= q.limit {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&q.mask] = p
	q.n++
	q.users++
	return true
}

// Pop dequeues the next packet, or nil if empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & q.mask
	q.n--
	if !p.IsRouting() {
		q.users--
	}
	return p
}

// Len returns the number of queued packets (all classes).
func (q *Queue) Len() int { return q.n }

// Scan calls fn for every queued packet, head first. The callback must not
// mutate the queue; the invariant auditor uses it to count in-flight
// packets without disturbing them.
func (q *Queue) Scan(fn func(*Packet)) {
	for i := 0; i < q.n; i++ {
		fn(q.buf[(q.head+i)&q.mask])
	}
}

// Measurement accumulates per-link packet delays over one measurement
// period.
type Measurement struct {
	sum   float64 // seconds
	count int64
}

// Record adds one packet's queueing+transmission+processing delay.
func (m *Measurement) Record(delaySeconds float64) {
	m.sum += delaySeconds
	m.count++
}

// Take returns the period's average delay (0 if no packets were forwarded
// — an idle line; the metrics' bias/floor handles it) and resets the
// accumulator.
func (m *Measurement) Take() float64 {
	if m.count == 0 {
		return 0
	}
	avg := m.sum / float64(m.count)
	m.sum, m.count = 0, 0
	return avg
}

// Count returns the packets recorded in the current period.
func (m *Measurement) Count() int64 { return m.count }

// CostModule converts one measurement period's average delay into a
// reported cost. internal/core.Module (HN-SPF), metric.DSPF and
// metric.MinHop all satisfy it.
type CostModule interface {
	// Update processes one period's average measured delay (seconds) and
	// returns the advertised cost plus whether the change is significant
	// enough to flood.
	Update(measuredDelay float64) (cost float64, report bool)
	// Cost returns the currently advertised cost.
	Cost() float64
	// Floor returns the smallest cost the module can advertise; multipath
	// tolerance derivation and sanity checks rely on it.
	Floor() float64
	// Reset returns the module to the state of a line coming up: an
	// HN-SPF link at its maximum cost, easing in (§5.4). Trunk.Restore
	// calls it on a repair.
	Reset()
}

// Statically ensure the three metrics satisfy CostModule.
var (
	_ CostModule = (*core.Module)(nil)
	_ CostModule = (*metric.DSPF)(nil)
	_ CostModule = (*metric.MinHop)(nil)
)

// MetricKind selects the routing metric a network runs with.
type MetricKind int

// The three SPF metrics the paper compares (§5), plus the original 1969
// distance vector over the queue-length metric (§2.1), which the PSN runs
// instead of the flood (distvec.go).
const (
	HNSPF  MetricKind = iota // the revised metric (the paper's contribution)
	DSPF                     // measured delay (May 1979)
	MinHop                   // static
	BF1969                   // 1969 distributed Bellman-Ford, instantaneous queue length
)

// String returns the paper's name for the metric.
func (k MetricKind) String() string {
	switch k {
	case HNSPF:
		return "HN-SPF"
	case DSPF:
		return "D-SPF"
	case MinHop:
		return "min-hop"
	case BF1969:
		return "Bellman-Ford 1969"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// MultipathToleranceFraction scales the smallest link floor in the network
// into the near-equality tolerance for multipath forwarding: large enough
// that parallel paths differing only by measurement noise split traffic,
// and strictly below the half-of-minimum-cost bound that guarantees loop
// freedom (see spf.ComputeDAG). tolerance = fraction × min(floor).
//
// The noise an HN-SPF cost moves by is a movement-limited step: −15 or +16
// units on a 56 kb/s line (core.LineParams.MaxDecrease/MaxIncrease). A
// tolerance under a step collapses a split whenever one path's link steps
// before its parallel twin, which is measured by another PSN at another
// phase; the flow then lands on one path, whose links climb while the idle
// ones fall, and the two can trade the whole flow period after period. Just
// under one half, the tolerance on a line with a propagation term (a 31-unit
// floor: 15.19) absorbs a −15 step; no fraction under the bound absorbs +16.
const MultipathToleranceFraction = 0.49

// NewCostModule builds the cost module of the given kind for a link of a
// network that is already running: settled at its idle line's cost
// (HN-SPF's floor, D-SPF's bias, min-hop's 1), counted as already reported,
// so a PSN booted with these costs floods only a significant change or its
// refresh. An HN-SPF module is built with opts (core.NewModuleOptions), the
// ablations that switch its §4.3 mechanisms off; other kinds ignore them. A
// kind that measures nothing has no module, and NewCostModule returns nil:
// BF1969 prices its lines by queue length (Trunk.Cost).
func NewCostModule(kind MetricKind, lt topology.LineType, propDelay float64, opts ...core.Option) CostModule {
	var m interface {
		CostModule
		Settle()
	}
	switch {
	case kind == HNSPF:
		m = core.NewModuleOptions(core.DefaultParams(lt), lt.Bandwidth(), propDelay, opts...)
	case kind == DSPF:
		m = metric.NewDSPF(lt, propDelay)
	case kind == MinHop:
		m = metric.NewMinHop()
	case kind < HNSPF || kind > BF1969:
		panic(fmt.Sprintf("node: unknown metric kind %d", int(kind)))
	default:
		return nil
	}
	m.Settle()
	return m
}

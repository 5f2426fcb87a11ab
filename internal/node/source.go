package node

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
)

// The random streams of one PSN, by index into sim.NewRNG's key. Each draw
// kind has its own stream, so a change to how many draws one kind takes
// moves none of the others.
const (
	StreamArrivals = iota // inter-arrival gaps
	StreamSizes           // user packet sizes
	StreamDests           // each packet's destination
	StreamPaths           // multipath's next-hop choice among near-equal-cost first hops
	StreamDestSet         // internal/shard's per-node destination set, drawn once at set-up
)

// Source is one PSN's Poisson traffic source, the one both engines run: its
// arrival, size and destination streams, its rate, and the traffic-matrix
// row its packets' destinations are drawn from.
type Source struct {
	id             int32  // the PSN's topology.NodeID
	emitted        uint32 // packets emitted: the low word of each one's Packet.Seq
	armed          bool   // an arrival is scheduled: Arm has said so, and no Fire has parked it since
	arr, size, dst sim.RNG

	// Rate is the source's packets per second. SetRow sets it; an engine may
	// scale it. A source at 0 is silent: Fire parks it.
	Rate float64

	dsts []topology.NodeID // the row's destinations with a positive entry, in row order
	cum  []float64         // their cumulative shares of the row; the last is 1
	hops []int             // their hop counts from the PSN, each a packet's MinHops
}

// NewSource seeds PSN id's source for the run seeded with seed. It offers
// nothing until SetRow gives it a row.
func NewSource(seed int64, id topology.NodeID) Source {
	return Source{
		id:   int32(id),
		arr:  sim.NewRNG(seed, int(id), StreamArrivals),
		size: sim.NewRNG(seed, int(id), StreamSizes),
		dst:  sim.NewRNG(seed, int(id), StreamDests),
	}
}

// SetRow makes the source offer bps[i] bits per second to dsts[i], skipping
// entries that are not positive: each packet goes to a destination with
// probability its share of the row, and Rate becomes the row's total at the
// clamped mean packet size, so offered bits match the row in expectation.
// hops(d) is destination d's hop count from the PSN over every link. It
// reuses the source's own slices.
func (s *Source) SetRow(dsts []topology.NodeID, bps []float64, hops func(topology.NodeID) int) {
	s.dsts, s.cum, s.hops = s.dsts[:0], s.cum[:0], s.hops[:0]
	var total float64
	for i, r := range bps {
		if r > 0 {
			total += r
			s.dsts = append(s.dsts, dsts[i])
			s.cum = append(s.cum, total)
			s.hops = append(s.hops, hops(dsts[i]))
		}
	}
	for i := range s.cum {
		s.cum[i] /= total
	}
	s.Rate = total / ClampedMeanPktBits()
}

// Arm reports whether the engine must schedule the source's next arrival, a
// Gap from now: when it offers something and no arrival of it is pending. An
// engine asks at boot and after every change of Rate or row, so a source a
// change revived is re-armed and an armed one is not armed twice.
func (s *Source) Arm() bool {
	if s.armed || !(s.Rate > 0) {
		return false
	}
	s.armed = true
	return true
}

// Fire reports whether the arrival due now offers a packet, after which the
// engine schedules the next a Gap later. A source whose Rate has fallen to 0
// since it was armed parks instead: its chain ends until Arm revives it.
func (s *Source) Fire() bool {
	s.armed = s.Rate > 0
	return s.armed
}

// Dests returns the destinations the row offers traffic to, in row order.
// The caller must not modify it.
func (s *Source) Dests() []topology.NodeID { return s.dsts }

// Gap draws the time to the next arrival at Rate: exponential, and at least
// one tick, so a source never fires twice at one instant.
func (s *Source) Gap() sim.Time {
	return max(sim.FromSeconds(s.arr.Exp(1/s.Rate)), 1)
}

// Emit fills a fresh user packet created at now: numbered PSN<<32 | packets
// emitted before it, from this PSN, to a destination drawn from the row (the
// first whose cumulative share reaches a uniform draw) that lies MinHops
// links away, of an exponential size of mean MeanPktBits clamped to
// [MinPktBits, MaxPktBits], not yet on any link. The row must offer
// something.
func (s *Source) Emit(p *Packet, now sim.Time) {
	if s.emitted == math.MaxUint32 {
		panic(fmt.Sprintf("node: node %d used up its 32-bit user sequence numbers; one more would carry into the node field of Packet.Seq", s.id))
	}
	p.Seq = uint64(s.id)<<32 | uint64(s.emitted)
	s.emitted++
	u := s.dst.Float64()
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.Src, p.Dst, p.MinHops = topology.NodeID(s.id), s.dsts[lo], s.hops[lo]
	p.SizeBits = min(max(s.size.Exp(MeanPktBits), MinPktBits), MaxPktBits)
	p.Created, p.Arrival = now, topology.NoLink
}

// FirstMeasurement is PSN id's first measurement instant in a network of
// nodes PSNs that measure every period: period + id·max(period/nodes, 1).
// The PSNs measure asynchronously, staggered by ID across one period (they
// re-route almost synchronously all the same, because flooding is fast:
// that effect emerges from the packet-level flood, not from scheduling).
func FirstMeasurement(id topology.NodeID, nodes int, period sim.Time) sim.Time {
	return period + sim.Time(id)*max(period/sim.Time(nodes), 1)
}

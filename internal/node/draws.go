package node

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// The random streams of one PSN, by index into sim.NewRNG's key. Each draw
// kind has its own stream, so a change to how many draws one kind takes
// moves none of the others.
const (
	StreamArrivals = iota // inter-arrival gaps
	StreamSizes           // user packet sizes
	StreamDests           // destination choice
	StreamPaths           // equal-cost next-hop choice (internal/network's multipath)
)

// Draws is one PSN's traffic streams: its Poisson source's gaps and packet
// sizes, drawn by the rules below, and the destination stream each engine
// reads by its own traffic model (a cumulative matrix row, or a sampled
// destination set).
type Draws struct {
	arr, size sim.RNG
	Dst       sim.RNG
}

// NewDraws seeds PSN id's traffic streams for the run seeded with seed.
func NewDraws(seed int64, id topology.NodeID) Draws {
	return Draws{
		arr:  sim.NewRNG(seed, int(id), StreamArrivals),
		size: sim.NewRNG(seed, int(id), StreamSizes),
		Dst:  sim.NewRNG(seed, int(id), StreamDests),
	}
}

// Gap draws the time to the next arrival of a Poisson source of rate
// packets per second: exponential, and at least one tick, so a source never
// fires twice at one instant.
func (d *Draws) Gap(rate float64) sim.Time {
	return max(sim.FromSeconds(d.arr.Exp(1/rate)), 1)
}

// PktBits draws a user packet's size: an exponential draw of mean
// MeanPktBits, clamped to [MinPktBits, MaxPktBits].
func (d *Draws) PktBits() float64 {
	return min(max(d.size.Exp(MeanPktBits), MinPktBits), MaxPktBits)
}

// FirstMeasurement is PSN id's first measurement instant in a network of
// nodes PSNs that measure every period: period + id·max(period/nodes, 1).
// The PSNs measure asynchronously, staggered by ID across one period (they
// re-route almost synchronously all the same, because flooding is fast:
// that effect emerges from the packet-level flood, not from scheduling).
func FirstMeasurement(id topology.NodeID, nodes int, period sim.Time) sim.Time {
	return period + sim.Time(id)*max(period/sim.Time(nodes), 1)
}

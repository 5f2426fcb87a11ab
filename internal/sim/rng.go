package sim

// The one random generator of both packet engines: splitmix64 streams keyed
// by (seed, node, stream). math/rand's source carries ~5 KB of state per
// stream; with three streams per node a 1k-node run walks ~15 MB of
// generator state in random order, and profiling showed the resulting cache
// misses as the single largest line in the per-packet budget. splitmix64
// holds 8 bytes of state (it lives in the node, on the cache lines of the
// fields its draws feed), passes the usual statistical batteries, and is
// seeded from the key alone, so a node's draws depend on its own event
// order and on nothing else that draws.

import "math"

// RNG is one reproducible random stream. The zero value is a valid stream,
// but streams come from NewRNG.
type RNG struct{ state uint64 }

// NewRNG derives the stream of the given index owned by node in the run
// seeded with seed, by double-mixing the combined key: equal keys give
// equal sequences, and neighbouring nodes or streams independent ones.
func NewRNG(seed int64, node int, stream uint64) RNG {
	return RNG{state: mix64(uint64(seed)) ^ mix64(uint64(node)*0x9e3779b97f4a7c15+stream*0xbf58476d1ce4e5b9+1)}
}

func mix64(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// next returns the next 64 uniform bits.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n), n > 0. The modulo bias is below
// 2^-50 for the fan-outs the models draw (destinations, equal-cost hops),
// far beneath the noise floor of any statistic the simulators report.
func (r *RNG) Intn(n int) int {
	return int(r.next() % uint64(n))
}

// Exp returns an exponential draw with the given mean, by inversion.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

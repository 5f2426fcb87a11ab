package check

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/queueing"
	"repro/internal/topology"
)

// metricProps is what the invariant checker knows about one module under
// test: its bounds and, when the paper imposes them, its per-update
// movement limits (§4.2/§4.3 — the HNM may move at most MaxIncrease up and
// MaxDecrease down per measurement period).
type metricProps struct {
	name             string
	floor, ceiling   float64
	maxUp, maxDown   float64 // 0 = no movement limit (D-SPF has none)
	maxSilentPeriods int     // most consecutive non-reports allowed
	build            func() node.CostModule
}

// CheckMetric runs one metric-invariant trial: every metric implementation,
// on a random line type with a random propagation delay, driven by a random
// delay trace (idle stretches, M/M/1 ramps, spikes), must keep every
// reported cost inside its Floor/Ceiling band, never change its advertised
// cost without reporting, respect its movement limits, and never stay
// silent past its forced-update horizon. On failure the delay trace is
// minimized into the reproducer.
func CheckMetric(rng *rand.Rand, seed int64) *Failure {
	lts := []topology.LineType{topology.T9_6, topology.T19_2, topology.T56, topology.S56, topology.T112}
	lt := lts[rng.Intn(len(lts))]
	prop := rng.Float64() * 0.3
	if !lt.Satellite() && rng.Intn(2) == 0 {
		prop = rng.Float64() * 0.02
	}

	var props metricProps
	switch rng.Intn(3) {
	case 0:
		p := core.DefaultParams(lt)
		m := core.NewModule(lt, prop)
		props = metricProps{
			name:  fmt.Sprintf("hnspf(%v prop=%.4f)", lt, prop),
			floor: m.Floor(), ceiling: m.Ceiling(),
			maxUp: p.MaxIncrease(), maxDown: p.MaxDecrease(),
			// The HNM suppresses sub-threshold changes indefinitely on a
			// steady line; only D-SPF forces periodic updates.
			maxSilentPeriods: 0,
			build:            func() node.CostModule { return core.NewModule(lt, prop) },
		}
	case 1:
		m := metric.NewDSPF(lt, prop)
		props = metricProps{
			name:  fmt.Sprintf("dspf(%v prop=%.4f)", lt, prop),
			floor: m.Floor(), ceiling: m.Ceiling(),
			// §2.2: the decaying significance threshold forces an update
			// within five 10-second periods, so at most four consecutive
			// calls may stay silent.
			maxSilentPeriods: 4,
			build:            func() node.CostModule { return metric.NewDSPF(lt, prop) },
		}
	default:
		props = metricProps{
			name: "minhop", floor: 1, ceiling: 1,
			maxSilentPeriods: 0,
			build:            func() node.CostModule { return metric.NewMinHop() },
		}
	}

	delays := genDelayTrace(rng, lt)
	if err := runMetricTrace(props, delays); err != nil {
		min := Minimize(delays, func(sub []float64) bool {
			return runMetricTrace(props, sub) != nil
		})
		finalErr := runMetricTrace(props, min)
		var b strings.Builder
		fmt.Fprintf(&b, "module: %s\n", props.name)
		for _, d := range min {
			fmt.Fprintf(&b, "delay %s\n", strconv.FormatFloat(d, 'g', -1, 64))
		}
		fmt.Fprintf(&b, "error: %v\n", finalErr)
		return &Failure{
			Check: "metric-invariant",
			Seed:  seed,
			Topo:  props.name,
			Err:   finalErr.Error(),
			Repro: b.String(),
		}
	}
	return nil
}

// genDelayTrace builds a measurement-delay sequence mixing the regimes a
// real line sees: idle periods, utilization ramps mapped through the M/M/1
// delay curve, congestion spikes, and the degenerate zero.
func genDelayTrace(rng *rand.Rand, lt topology.LineType) []float64 {
	s := queueing.ServiceTime(lt.Bandwidth())
	var delays []float64
	for len(delays) < 60+rng.Intn(120) {
		switch rng.Intn(4) {
		case 0: // idle stretch
			for i, n := 0, 1+rng.Intn(8); i < n; i++ {
				delays = append(delays, s*(1+0.1*rng.Float64()))
			}
		case 1: // ramp up then down through the M/M/1 curve
			steps := 3 + rng.Intn(8)
			peak := 0.3 + 0.69*rng.Float64()
			for i := 0; i <= steps; i++ {
				delays = append(delays, queueing.MM1Delay(s, peak*float64(i)/float64(steps)))
			}
			for i := steps; i >= 0; i-- {
				delays = append(delays, queueing.MM1Delay(s, peak*float64(i)/float64(steps)))
			}
		case 2: // spike
			delays = append(delays, s*float64(10+rng.Intn(400)))
		default: // degenerate
			delays = append(delays, 0)
		}
	}
	return delays
}

// runMetricTrace feeds the delays to a fresh module and returns the first
// broken invariant.
func runMetricTrace(p metricProps, delays []float64) error {
	m := p.build()
	prev := m.Cost()
	silent := 0
	for i, d := range delays {
		cost, report := m.Update(d)
		if cost < p.floor || cost > p.ceiling {
			return fmt.Errorf("step %d: cost %v outside [%v, %v]", i, cost, p.floor, p.ceiling)
		}
		// Bit-exact differential oracle: Cost() must return the same stored value Update reported
		if cost != m.Cost() {
			return fmt.Errorf("step %d: Update returned %v but Cost() says %v", i, cost, m.Cost())
		}
		if !report {
			// Bit-exact oracle: a silent step must leave the reported cost untouched, not merely close
			if cost != prev {
				return fmt.Errorf("step %d: cost moved %v -> %v without a report", i, prev, cost)
			}
			silent++
			if p.maxSilentPeriods > 0 && silent > p.maxSilentPeriods {
				return fmt.Errorf("step %d: %d consecutive periods without a report (max %d)",
					i, silent, p.maxSilentPeriods)
			}
		} else {
			// The module computes a limited cost as prev±limit, so the
			// observed movement can overshoot the limit by one ulp of the
			// operands; compare with a relative slack.
			eps := 1e-9 * math.Max(1, math.Max(math.Abs(prev), math.Abs(cost)))
			if p.maxUp > 0 && cost-prev > p.maxUp+eps {
				return fmt.Errorf("step %d: cost rose %v -> %v, over the +%v movement limit",
					i, prev, cost, p.maxUp)
			}
			if p.maxDown > 0 && prev-cost > p.maxDown+eps {
				return fmt.Errorf("step %d: cost fell %v -> %v, over the -%v movement limit",
					i, prev, cost, p.maxDown)
			}
			silent = 0
		}
		prev = cost
	}
	return nil
}

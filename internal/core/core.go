package core

import (
	"repro/internal/queueing"
	"repro/internal/topology"
)

// Module is the HN-SPF Module (HNM) for a single link: it keeps the link's
// averaging-filter state and last reported cost, and transforms each
// measurement period's delay into the cost to flood. It is the faithful
// implementation of Figure 3; see the package comment for the pseudocode.
//
// A Module is not safe for concurrent use; in the simulator each link owns
// one and the single-threaded event loop drives it.
type Module struct {
	params LineParams
	floor  float64        // MinCost + propagation term
	table  queueing.Table // delay→utilization at the 600-bit average packet's service time

	lastAverage  float64 // Last_Average: the recursive utilization filter
	lastReported float64 // Last_Reported: cost in the last flooded update
	initialized  bool

	opts options // ablation switches (all off in the real HNM)
}

// NewModule creates the HNM for a link of the given line type and
// configured one-way propagation delay (seconds), using DefaultParams.
func NewModule(lt topology.LineType, propDelay float64) *Module {
	return NewModuleParams(DefaultParams(lt), lt.Bandwidth(), propDelay)
}

// NewModuleParams creates an HNM with an explicit parameter set — the
// paper envisioned "that parameter sets would be tailored to the needs of
// individual networks" (§4.4). bandwidth is in bits/second.
func NewModuleParams(p LineParams, bandwidth, propDelay float64) *Module {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if bandwidth <= 0 {
		panic("core: bandwidth must be positive")
	}
	if propDelay < 0 {
		panic("core: negative propagation delay")
	}
	s := queueing.ServiceTime(bandwidth)
	floor := p.MinCost + PropCostPerSecond*propDelay
	if floor > p.MaxCost {
		// An extremely long line: the propagation term may not push the
		// floor past the absolute ceiling.
		floor = p.MaxCost
	}
	m := &Module{
		params: p,
		floor:  floor,
		// The real PSN used a lookup table; quantize to 1% of the service
		// time out to the delay of a 99.5%-utilized line (beyond which the
		// estimate saturates — the cost is capped well before that).
		table: queueing.NewTable(s, s/100, s*200, queueing.UtilizationFromDelay),
	}
	m.Reset()
	return m
}

// Floor returns the link's lower cost bound (MinCost plus the propagation
// term).
func (m *Module) Floor() float64 { return m.floor }

// Ceiling returns the link's upper cost bound.
func (m *Module) Ceiling() float64 { return m.params.MaxCost }

// Cost returns the last reported cost.
func (m *Module) Cost() float64 { return m.lastReported }

// Reset reinitializes the module to the link-up state of a line coming up
// — a repaired trunk (node.Trunk.Restore). It reports its highest cost so
// that routing "eases in" the new capacity gradually (§5.4): each
// subsequent period the movement limit lets the cost fall by only
// MaxDecrease, pulling in a little more traffic at a time. A network that
// is already running starts from Settle instead.
func (m *Module) Reset() {
	m.lastAverage = 0
	m.lastReported = m.params.MaxCost
	m.initialized = false
}

// Settle puts the module in the steady state of an idle line that has been
// up all along: zero average utilization and the floor, counted as already
// reported, so the first period reports only a significant change. Table 1
// measured a network that was already running; §5.4's ease-in is the rule
// for a line coming up, which Reset keeps.
func (m *Module) Settle() {
	m.lastAverage = 0
	m.lastReported = m.floor
	m.initialized = true
}

// Update runs one measurement period of the HNM: measuredDelay is the
// average per-packet delay over the period (queueing + transmission +
// processing, excluding propagation), in seconds. It returns the cost the
// link should advertise and whether the change is significant enough to
// generate a routing update (§4.3 "Minimum Change"). When report is false
// the advertised cost is unchanged.
func (m *Module) Update(measuredDelay float64) (cost float64, report bool) {
	// Sample_Utilization = delay_to_utilization[Measured_Delay]
	sample := m.table.Lookup(measuredDelay)

	// Average_Utilization = .5 * Sample + .5 * Last_Average
	avg := AveragingWeight*sample + (1-AveragingWeight)*m.lastAverage
	if m.opts.noAveraging {
		avg = sample
	}
	m.lastAverage = avg

	// Raw_Cost = Slope * Average_Utilization + Offset
	raw := m.params.Slope()*avg + m.params.Offset()

	// Limited_Cost = Limit_Movement(Raw_Cost, Last_Reported)
	limited := m.limitMovement(raw)

	// Revised_Cost = Clip(Limited_Cost, Max, Min)
	revised := m.clip(limited)

	// Minimum-change threshold: suppress frivolous updates.
	if m.initialized && !m.opts.noMinChange && !m.significant(revised) {
		return m.lastReported, false
	}
	// Change detection against the stored copy of the last reported cost, not recomputed arithmetic
	if m.opts.noMinChange && revised == m.lastReported && m.initialized {
		return revised, false
	}
	m.initialized = true
	m.lastReported = revised
	return revised, true
}

// RawCost returns the unclipped, unlimited cost for a given utilization —
// the pure metric map used by the Figure 4/5 plots and the §5 equilibrium
// model.
func (m *Module) RawCost(utilization float64) float64 {
	raw := m.params.Slope()*utilization + m.params.Offset()
	return m.clip(raw)
}

func (m *Module) limitMovement(raw float64) float64 {
	if m.opts.noLimits {
		return raw
	}
	down := m.params.MaxDecrease()
	if m.opts.symmetricDown {
		down = m.params.MaxIncrease()
	}
	delta := raw - m.lastReported
	switch {
	case delta > m.params.MaxIncrease():
		return m.lastReported + m.params.MaxIncrease()
	case delta < -down:
		return m.lastReported - down
	default:
		return raw
	}
}

func (m *Module) clip(c float64) float64 {
	if c < m.floor {
		return m.floor
	}
	if c > m.params.MaxCost {
		return m.params.MaxCost
	}
	return c
}

// significant implements the §4.3 minimum-change criterion. A change that
// pins the cost to the floor or ceiling is always significant: otherwise
// the clip could shrink the final step below the threshold and the cost
// would never reach its bound (e.g. 56 kb/s: 78 → clip(94) = 90 is a
// 12-unit step, under the 13-unit threshold).
func (m *Module) significant(revised float64) bool {
	d := revised - m.lastReported
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return false
	}
	// revised was clipped to exactly floor/MaxCost by clip(); boundary equality is exact by construction
	if revised == m.floor || revised == m.params.MaxCost {
		return true
	}
	return d >= m.params.MinChange()
}

// Package queueing implements the queueing-theory substrate the revised
// metric depends on: the M/M/1 delay formula and the delay-to-utilization
// transform of Figure 3 ("A simple M/M/1 queueing model is used with the
// service time being the network-wide average packet size (600 bits/packet)
// divided by the trunk's bandwidth"). The PSN's delay_to_utilization[]
// array keeps its quantization here (Table) but not its storage: each
// entry is computed when it is looked up.
package queueing

import "math"

// AvgPacketBits is the network-wide average packet size used by the PSN to
// convert measured delay into a utilization estimate (paper §4.1).
const AvgPacketBits = 600.0

// ServiceTime returns the M/M/1 service time in seconds for a trunk of the
// given bandwidth (bits/second), assuming the network-wide average packet.
func ServiceTime(bandwidthBPS float64) float64 {
	if bandwidthBPS <= 0 {
		return 0
	}
	return AvgPacketBits / bandwidthBPS
}

// MM1Delay returns the expected total time in system (queueing + service)
// for an M/M/1 queue with the given service time (seconds) at utilization
// rho in [0, 1). For rho >= 1 it returns +Inf.
func MM1Delay(serviceTime, rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return serviceTime / (1 - rho)
}

// UtilizationFromDelay inverts MM1Delay: given a measured average delay
// (queueing + service, excluding propagation) it estimates link utilization.
// This is the paper's delay_to_utilization[] table. Results are clamped to
// [0, MaxRho]; delays at or below the service time map to 0.
//
// rho = 1 - S/D  (from D = S/(1-rho))
func UtilizationFromDelay(serviceTime, delay float64) float64 {
	if serviceTime <= 0 || delay <= serviceTime {
		return 0
	}
	rho := 1 - serviceTime/delay
	if rho > MaxRho {
		return MaxRho
	}
	return rho
}

// MaxRho is the utilization ceiling of the delay↔utilization transforms:
// UtilizationFromDelay clamps its estimate here, and SuperposeDelay clamps
// the combined foreground+background load here, so a saturated trunk yields
// a large finite delay instead of an infinity that would poison the
// metric's averaging filter.
const MaxRho = 0.999

// SuperposeDelay adds a fluid background load to a measured per-packet
// delay: it inverts the measurement to a foreground utilization estimate
// (the paper's delay→utilization transform), adds the background
// utilization, clamps the total at MaxRho, and returns the measured delay
// plus the M/M/1 queueing increment the combined load implies:
//
//	D' = D + S/(1-min(ρfg+ρbg, MaxRho)) - S/(1-ρfg)
//
// The hybrid engine feeds this to the metric modules so HN-SPF/D-SPF see
// the combined load without a background packet ever being scheduled. A
// non-positive background returns the measurement unchanged (bit-for-bit:
// zero background degenerates to the pure packet path).
func SuperposeDelay(serviceTime, measured, bgRho float64) float64 {
	if bgRho <= 0 || serviceTime <= 0 {
		return measured
	}
	fgRho := UtilizationFromDelay(serviceTime, measured)
	total := fgRho + bgRho
	if total > MaxRho {
		total = MaxRho
	}
	return measured + MM1Delay(serviceTime, total) - MM1Delay(serviceTime, fgRho)
}

// Table is the PSN's delay→utilization table for one line type: a measured
// delay rounds to the nearest multiple of step, saturating at the last one
// within maxDelay, and that multiple is inverted. The PSN stored the
// entries; a trunk reads one per 10-s period, so Lookup computes it — the
// same value, bit for bit. A Table is a small immutable value.
type Table struct {
	serviceTime float64
	step        float64 // delay quantum in seconds
	last        int     // index of the last entry: int(maxDelay/step)
	invert      func(serviceTime, delay float64) float64
}

// NewTable returns the table for a line with the given service time,
// quantized to step seconds, covering delays up to maxDelay, under invert:
// UtilizationFromDelay is the paper's M/M/1, UtilizationFromDelayMD1 the
// sensitivity ablation's M/D/1.
func NewTable(serviceTime, step, maxDelay float64, invert func(serviceTime, delay float64) float64) Table {
	if serviceTime <= 0 || step <= 0 || maxDelay <= serviceTime {
		panic("queueing: invalid table parameters")
	}
	return Table{serviceTime: serviceTime, step: step, last: int(maxDelay / step), invert: invert}
}

// NewTableFunc is NewTable for a caller that holds the table by pointer.
func NewTableFunc(serviceTime, step, maxDelay float64, invert func(serviceTime, delay float64) float64) *Table {
	t := NewTable(serviceTime, step, maxDelay, invert)
	return &t
}

// Lookup returns the tabled utilization estimate for a measured delay in
// seconds. Delays beyond the table saturate at the last entry.
func (t *Table) Lookup(delay float64) float64 {
	if delay <= 0 {
		return 0
	}
	// Compared as a float so a delay past the int range saturates too.
	i := t.last
	if x := delay/t.step + 0.5; x < float64(t.last+1) {
		i = int(x)
	}
	return t.invert(t.serviceTime, float64(i)*t.step)
}

// ServiceTime returns the service time the table was built for.
func (t *Table) ServiceTime() float64 { return t.serviceTime }

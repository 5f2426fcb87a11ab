package queueing

// M/D/1 variant: the paper's delay↔utilization transforms assume M/M/1
// "for illustrative purposes" (§5); real trunk traffic had less variable
// packet sizes, for which M/D/1 (deterministic service) is the opposite
// extreme. The M/D/1 inversion supports the sensitivity analysis: any
// queueing assumption between the two gives the same qualitative metric
// behaviour, because the HNM only needs delay to be a monotone, invertible
// function of utilization.

// UtilizationFromDelayMD1 inverts the M/D/1 expected time in system with
// deterministic service time S (Pollaczek–Khinchine with zero service
// variance). Solving D = S(1 + rho/(2(1−rho))) for rho:
//
//	rho = 2(D−S) / (2D − S)
//
// Results are clamped to [0, MaxRho]; delays at or below the service time
// map to 0.
func UtilizationFromDelayMD1(serviceTime, delay float64) float64 {
	if serviceTime <= 0 || delay <= serviceTime {
		return 0
	}
	rho := 2 * (delay - serviceTime) / (2*delay - serviceTime)
	if rho > MaxRho {
		return MaxRho
	}
	if rho < 0 {
		return 0
	}
	return rho
}

package arpanet

// SimConfig, Simulation and NewSimulation are the entry point Run replaced.
// They stay, as a shell over Run, only because the repository benchmark
// (bench/, which is only ever changed on its own) drives its Table 1 workload
// through them. Use Run.
type SimConfig struct {
	Metric        Metric
	Seed          int64
	WarmupSeconds float64
	TraceCapacity int
}

// Simulation is a Spec waiting for its horizon, then the Result of Run.
type Simulation struct {
	spec Spec
	res  Result
}

// NewSimulation returns the run of the topology and traffic under cfg.
func NewSimulation(t *Topology, tr *Traffic, cfg SimConfig) *Simulation {
	return &Simulation{spec: Spec{Topology: t, Traffic: tr, Metric: cfg.Metric, Seed: cfg.Seed,
		WarmupSeconds: cfg.WarmupSeconds, TraceCapacity: cfg.TraceCapacity}}
}

// RunSeconds runs from t=0 to t simulated seconds; it panics on a Spec Run
// refuses.
func (s *Simulation) RunSeconds(t float64) {
	s.spec.Seconds = t
	var err error
	if s.res, err = Run(s.spec); err != nil {
		panic(err)
	}
}

// Report is the last RunSeconds' Report.
func (s *Simulation) Report() Report { return s.res.Report }

// Trace is the last RunSeconds' event log, nil without TraceCapacity.
func (s *Simulation) Trace() *Trace { return s.res.Trace }

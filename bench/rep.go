package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/trace"
)

// repResult is what one repetition of one workload reports to the parent:
// the two timed windows, a digest of every simulated output, the checked
// operations, exact counts, and (traced only) the spans.
type repResult struct {
	Workload string             `json:"workload"`
	SetupS   float64            `json:"setup_s"`
	RunWallS float64            `json:"run_wall_s"`
	Digest   string             `json:"digest"`
	Ops      int                `json:"ops_attempted"`
	Failed   int                `json:"ops_failed"`
	Failures []string           `json:"failures,omitempty"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans,omitempty"`
}

// rep is the context one repetition runs in. The workload functions call
// span around every call into a layer, startMeasured when set-up (inputs,
// engine construction, warm-up) is over, and stopMeasured when the fixed
// amount of simulated work is done; checks and digests happen outside the
// measured window.
type rep struct {
	w      *workload
	seed   int64
	sz     size
	shards int  // hier1k only: 2 in every gated run, 1 for the barrier-overhead variant
	traced bool // engine trace facilities on, spans and allocation counters recorded
	tr     *tracer
	rings  []*trace.Ring // traced ARPANET reps: the measured runs' event logs, rendered after the window

	t0, tMeas time.Time
	mem       runtime.MemStats
	sum       hash.Hash
	res       repResult
}

func newRep(w *workload, sz size, seed int64, shards int, traced bool) *rep {
	r := &rep{w: w, seed: seed, sz: sz, shards: shards, traced: traced, sum: sha256.New()}
	r.res.Workload = w.name
	r.res.Counts = map[string]float64{}
	r.t0 = time.Now()
	if traced {
		r.tr = newTracer(w.name, r.t0)
	}
	return r
}

// runRep executes one repetition of w and returns its result.
func runRep(w *workload, sz size, seed int64, shards int, traced bool) repResult {
	r := newRep(w, sz, seed, shards, traced)
	r.tr.do("rep", func() { w.run(r) })
	r.res.Digest = hex.EncodeToString(r.sum.Sum(nil))
	if r.tr != nil {
		r.res.Spans = r.tr.spans
	}
	return r.res
}

func (r *rep) span(name string, f func()) { r.tr.do(name, f) }

// startMeasured closes the set-up window and opens the measured one. A
// traced rep first settles the heap so go.heap_live_mb_after_setup is the
// live set, and snapshots the allocator for the per-packet counts.
func (r *rep) startMeasured() {
	if r.traced {
		runtime.GC()
		runtime.ReadMemStats(&r.mem)
		r.res.Counts["heap_live_mb"] = float64(r.mem.HeapAlloc) / (1 << 20)
	}
	r.tMeas = time.Now()
	r.res.SetupS = r.tMeas.Sub(r.t0).Seconds()
}

func (r *rep) stopMeasured() {
	r.res.RunWallS = time.Since(r.tMeas).Seconds()
	if r.traced {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.res.Counts["mallocs"] = float64(m.Mallocs - r.mem.Mallocs)
		r.res.Counts["gc_cycles"] = float64(m.NumGC - r.mem.NumGC)
		r.res.Counts["gc_pause_ms"] = float64(m.PauseTotalNs-r.mem.PauseTotalNs) / 1e6
	}
}

// measured reports whether the measured window is open; workloads use it to
// keep the untimed warm-up repetition out of the exact counts.
func (r *rep) measured() bool { return !r.tMeas.IsZero() }

// op books one simulation run: attempted always, failed when any problem
// was found in its outputs.
func (r *rep) op(what string, problems ...string) {
	r.res.Ops++
	if len(problems) == 0 {
		return
	}
	r.res.Failed++
	for _, p := range problems {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("%s seed %d: %s: %s", r.w.name, r.seed, what, p))
	}
}

// digest folds one rendered output into the rep's digest.
func (r *rep) digest(s string) {
	// hash.Hash.Write never returns an error.
	_, _ = r.sum.Write([]byte(s))
}

// digestRings renders the measured runs' trace rings into the digest.
func (r *rep) digestRings() {
	if len(r.rings) == 0 {
		return
	}
	r.span("trace_text", func() {
		for _, ring := range r.rings {
			r.digest(ring.Dump())
		}
	})
}

// count adds to an exact count of the measured window.
func (r *rep) count(name string, v float64) {
	if r.measured() {
		r.res.Counts[name] += v
	}
}

// Package shardsafe is a linter fixture for the shard-barrier rule:
// every marked line must produce exactly the finding in its want
// comment, and nothing else. The directive below opts the package in.
//
// lint:shardsafe
package shardsafe

import (
	"repro/internal/analysis/testdata/src/shardsafe/flooding"
)

// --- 1: payload immutability ---------------------------------------------

func mutateExported(u *flooding.Update) {
	u.Costs[0] = 1 // want shardsafe "write to shared flooding.Update payload"
	u.Seq++        // want shardsafe "write to shared flooding.Update payload"
}

// republish builds a fresh Update instead of mutating: the legal idiom.
func republish(u *flooding.Update) *flooding.Update {
	nu := flooding.Update{Origin: u.Origin, Seq: u.Seq + 1, Costs: u.Costs}
	return &nu
}

type wire struct {
	upd *flooding.Update
}

// export assigns the pointer itself, which is not a mutation.
func export(w *wire, u *flooding.Update) {
	w.upd = u
}

// --- 2: delay floor -------------------------------------------------------

// FromSeconds mirrors sim.FromSeconds: truncation can yield zero ticks.
func FromSeconds(s float64) int64 { return int64(s * 10) }

type kernel struct{}

func (kernel) ScheduleAt(at int64, f func())         {}
func (kernel) ScheduleTailCallAt(at int64, f func()) {}

func noop() {}

func scheduleBad(k kernel, now int64, lat float64) {
	d := FromSeconds(lat)
	k.ScheduleAt(now+d, noop) // want shardsafe "schedule timestamp uses a FromSeconds-derived delay without the 1-tick floor"
}

func scheduleInline(k kernel, now int64, lat float64) {
	k.ScheduleAt(now+FromSeconds(lat), noop) // want shardsafe "schedule timestamp uses a FromSeconds-derived delay without the 1-tick floor"
}

// scheduleGood clamps through the floor-guard idiom first.
func scheduleGood(k kernel, now int64, lat float64) {
	d := FromSeconds(lat)
	if d < 1 {
		d = 1
	}
	k.ScheduleAt(now+d, noop)
}

// scheduleTail is exempt by design: tail events run at the current
// instant, after every normal event.
func scheduleTail(k kernel, now int64, lat float64) {
	k.ScheduleTailCallAt(now+FromSeconds(lat), noop)
}

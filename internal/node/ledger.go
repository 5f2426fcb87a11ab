package node

import (
	"fmt"

	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/spf"
)

// Conservation is a snapshot of the packet ledger over Counted packets
// (user packets generated inside the measurement window).
type Conservation struct {
	Offered      int64
	Delivered    int64
	BufferDrops  int64
	LoopDrops    int64
	NoRouteDrops int64
	OutageDrops  int64
	InFlight     int64 // queued, on a transmitter, or propagating
}

// Balanced reports whether the ledger balances: offered equals delivered
// plus every drop class plus in-flight.
func (c Conservation) Balanced() bool {
	return c.Offered == c.Delivered+c.BufferDrops+c.LoopDrops+c.NoRouteDrops+c.OutageDrops+c.InFlight
}

// Plus returns the component-wise sum of two ledgers. The sharded runner
// composes its per-shard custody ledgers into one global Conservation with
// it: export/import counters cancel in the sum (every exported packet is
// imported exactly once or still on the wire), so the composed ledger obeys
// the same Balanced identity as a single-kernel run.
func (c Conservation) Plus(d Conservation) Conservation {
	return Conservation{
		Offered:      c.Offered + d.Offered,
		Delivered:    c.Delivered + d.Delivered,
		BufferDrops:  c.BufferDrops + d.BufferDrops,
		LoopDrops:    c.LoopDrops + d.LoopDrops,
		NoRouteDrops: c.NoRouteDrops + d.NoRouteDrops,
		OutageDrops:  c.OutageDrops + d.OutageDrops,
		InFlight:     c.InFlight + d.InFlight,
	}
}

// Err returns nil when balanced, or an error naming the imbalance.
func (c Conservation) Err() error {
	if c.Balanced() {
		return nil
	}
	accounted := c.Delivered + c.BufferDrops + c.LoopDrops + c.NoRouteDrops + c.OutageDrops + c.InFlight
	return fmt.Errorf("packet conservation violated: offered %d != accounted %d (missing %d): %+v",
		c.Offered, accounted, c.Offered-accounted, c)
}

// AuditRun checks the two invariants of a run that no ledger shows, for one
// kernel and the routing table it drives (nil without one). The kernel refused
// no schedule: an ErrPastEvent dropped anywhere, by any spelling, is an event
// that never fires. And every update a router holds still reads as
// flooding.NewUpdate published it: the PSNs, on every shard, share the
// pointer. Both engines' audits call it.
func AuditRun(k *sim.Kernel, routers *spf.Table) error {
	if n := k.Stats().Rejected; n != 0 {
		return fmt.Errorf("the kernel refused %d schedules as in the past; each is an event that never fired", n)
	}
	var err error
	if routers != nil {
		routers.Updates(func(u *flooding.Update) {
			if !u.Intact() {
				err = fmt.Errorf("update %d from node %d was written after NewUpdate published it; every PSN reads the same pointer", u.Seq, u.Origin)
			}
		})
	}
	return err
}

package node

import (
	"errors"
	"fmt"

	"repro/internal/metric"
	"repro/internal/sim"
)

// Trunk is the PSN-side state of one directed trunk: the output queue, the
// single transmitter, the §2.2 delay measurement, the cost module and the
// in-service flag. Both packet engines embed it in their per-link state and
// keep only what differs between them: how the completion event is
// scheduled, where a transmitted packet goes next, and how outcomes are
// booked.
//
// The transmitter protocol is Next → Started → Done: Next claims the
// transmitter for the queue head and says how long it will hold it, the
// engine schedules its completion event and hands the handle to Started,
// and the event calls Done. Fail cancels that event, so a transmission cut
// short by an outage can never complete after the repair and run a second
// transmitter beside the one the repair starts; Done and Next also refuse
// to act on a stale completion should a cancel ever be missed.
type Trunk struct {
	Queue     *Queue
	Meas      Measurement
	Module    CostModule
	Bandwidth float64 // bits/second

	down bool // out of service

	// The transmitter. busy and pkt say the same thing twice on purpose:
	// Audit reads their disagreement as a broken transmitter.
	busy bool
	// samples counts the measured window's utilization samples taken in
	// service (Window.Sample); it sits in busy's padding.
	samples int32
	pkt     *Packet    // on the transmitter
	done    sim.Handle // its completion event

	sent float64 // bits transmitted since the last utilization sample
}

// NewTrunk returns an idle, in-service trunk with an empty queue.
func NewTrunk(queueLimit int, module CostModule, bandwidth float64) Trunk {
	return Trunk{Queue: NewQueue(queueLimit), Module: module, Bandwidth: bandwidth}
}

// Next claims the idle transmitter for the head of the queue and returns
// that packet with its transmission time; the caller schedules the
// completion and passes its handle to Started. It returns nil when the
// trunk is down, already transmitting, or has nothing queued, so callers
// need no check of their own before asking.
//
// The time is at least one tick, so a completion never shares an instant
// with the event that started it, and no two of a link's arrivals share an
// instant: the ordering rules both engines keep (internal/shard's package
// comment, rules 1 and 2). The floor never binds on today's packets and
// lines: the smallest packet (MinPktBits; routing packets are larger) on the
// fastest line (112 kb/s) takes 893 µs.
func (t *Trunk) Next() (*Packet, sim.Time) {
	if t.busy || t.down {
		return nil, 0
	}
	p := t.Queue.Pop()
	if p == nil {
		return nil, 0
	}
	t.busy, t.pkt = true, p
	tx := sim.FromSeconds(p.SizeBits / t.Bandwidth)
	if tx < 1 {
		tx = 1
	}
	return p, tx
}

// Started records the completion event of the transmission Next began.
func (t *Trunk) Started(done sim.Handle) { t.done = done }

// Done completes the transmission: it books the packet's queueing +
// transmission delay plus the fixed processing term into the period's
// measurement (§2.2; propagation is tabled inside the cost module), counts
// the hop and returns the packet for the engine to send on. A completion
// that finds no transmission under way is stale — Fail got there first —
// and returns nil.
func (t *Trunk) Done(now sim.Time) *Packet {
	p := t.pkt
	if !t.busy || p == nil {
		return nil
	}
	t.busy, t.pkt, t.done = false, nil, sim.Handle{}
	t.Meas.Record((now - p.Enqueued).Seconds() + ProcessingDelay.Seconds())
	t.sent += p.SizeBits
	p.Hops++
	return p
}

// Fail takes the trunk out of service. The outage destroys everything in
// the trunk's custody, and drop books each loss: first the packet on the
// transmitter, whose completion is cancelled, then the backlog head to
// tail. Nothing is enqueued on a down trunk, so the backlog stays empty
// until Restore and no pre-outage Enqueued stamp can reach a later
// measurement. The partial period measured so far is discarded.
func (t *Trunk) Fail(drop func(*Packet)) {
	t.down = true
	p := t.pkt
	t.done.Cancel()
	t.busy, t.pkt, t.done = false, nil, sim.Handle{}
	t.Meas.Take()
	if p != nil {
		drop(p)
	}
	for p := t.Queue.Pop(); p != nil; p = t.Queue.Pop() {
		drop(p)
	}
}

// Restore returns the trunk to service with its cost module reset — an
// HN-SPF trunk comes back at its maximum cost and eases in (§5.4) — and an
// empty measurement period. The transmitter restarts with the next packet
// the engine enqueues.
func (t *Trunk) Restore() {
	t.down = false
	if t.Module != nil {
		t.Module.Reset()
	}
	t.Meas.Take()
}

// Down reports whether the trunk is out of service.
func (t *Trunk) Down() bool { return t.down }

// Advertised is the trunk's price as its PSN's routing protocol reads it:
// Cost in service, DownCost out of it.
func (t *Trunk) Advertised() float64 {
	if t.down {
		return DownCost
	}
	return t.Cost()
}

// Cost is the trunk's price whether in service or not: its cost module's
// current cost, or, for a trunk with no module (BF1969's), the instantaneous
// queue length plus metric.QueueLengthConstant — §2.1: "the link metric...
// was simply the instantaneous queue length at the moment of updating plus a
// fixed constant."
func (t *Trunk) Cost() float64 {
	if t.Module == nil {
		return float64(t.Queue.Len()) + metric.QueueLengthConstant
	}
	return t.Module.Cost()
}

// Holding calls fn for every packet in the trunk's custody: the backlog,
// head first, then the one on the transmitter.
func (t *Trunk) Holding(fn func(*Packet)) {
	t.Queue.Scan(fn)
	if t.pkt != nil {
		fn(t.pkt)
	}
}

// Custody counts the packets in the trunk's custody, user and routing: the
// conservation ledgers of both engines count their in-flight terms by it.
func (t *Trunk) Custody() (user, routing int64) {
	t.Holding(func(p *Packet) {
		if p.IsRouting() {
			routing++
		} else {
			user++
		}
	})
	return user, routing
}

// Audit checks the single-transmitter invariant: a busy trunk has exactly
// one packet on the transmitter and one pending completion event, an idle
// one has neither, a down trunk transmits nothing and holds no backlog, and
// an idle trunk in service has no backlog (the transmitter is
// work-conserving).
func (t *Trunk) Audit() error {
	switch {
	case t.busy && t.down:
		return errors.New("transmitting while down")
	case t.busy && t.pkt == nil:
		return errors.New("busy with no in-flight packet")
	case t.busy && !t.done.Pending():
		return errors.New("busy with no pending completion event")
	case !t.busy && t.pkt != nil:
		return errors.New("idle with an in-flight packet")
	case !t.busy && t.done.Pending():
		return errors.New("idle with a pending completion event (double transmitter)")
	case !t.busy && !t.down && t.Queue.Len() > 0:
		return fmt.Errorf("idle with %d queued packets", t.Queue.Len())
	case t.down && t.Queue.Len() > 0:
		return fmt.Errorf("down with %d queued packets", t.Queue.Len())
	}
	return nil
}

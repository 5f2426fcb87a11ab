package node

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newTestTrunk() (*Trunk, *sim.Kernel) {
	tr := NewTrunk(4, NewCostModule(HNSPF, topology.T56, 0.010), topology.T56.Bandwidth())
	return &tr, sim.New()
}

// transmit starts the next transmission the way an engine does: claim the
// transmitter, schedule the completion, hand back the handle.
func transmit(tr *Trunk, k *sim.Kernel) (*Packet, sim.Time, sim.Handle) {
	p, tx := tr.Next()
	if p == nil {
		return nil, 0, sim.Handle{}
	}
	h := k.ScheduleCall(tx, func(sim.Time, any) {}, nil)
	tr.Started(h)
	return p, tx, h
}

// Every way the single-transmitter invariant can break, planted one at a
// time on an otherwise healthy trunk; Audit must name each.
func TestTrunkAuditNamesEachViolation(t *testing.T) {
	cases := []struct {
		want  string
		plant func(tr *Trunk, k *sim.Kernel)
	}{
		{"transmitting while down", func(tr *Trunk, k *sim.Kernel) {
			tr.Queue.Push(user(1))
			transmit(tr, k)
			tr.down = true // an outage that forgot to cancel
		}},
		{"busy with no in-flight packet", func(tr *Trunk, k *sim.Kernel) {
			tr.Queue.Push(user(1))
			transmit(tr, k)
			tr.pkt = nil
		}},
		{"busy with no pending completion event", func(tr *Trunk, k *sim.Kernel) {
			tr.Queue.Push(user(1))
			tr.Next() // claimed, never scheduled: the transmitter is stuck
		}},
		{"idle with an in-flight packet", func(tr *Trunk, k *sim.Kernel) {
			tr.Queue.Push(user(1))
			transmit(tr, k)
			tr.busy = false
		}},
		{"idle with a pending completion event (double transmitter)", func(tr *Trunk, k *sim.Kernel) {
			// The PR 2 bug: a completion that outlived its transmission.
			tr.Started(k.ScheduleCall(sim.Millisecond, func(sim.Time, any) {}, nil))
		}},
		{"idle with 1 queued packets", func(tr *Trunk, k *sim.Kernel) {
			tr.Queue.Push(user(1)) // enqueued, transmitter never kicked
		}},
		{"down with 1 queued packets", func(tr *Trunk, k *sim.Kernel) {
			tr.Fail(func(*Packet) {})
			tr.Queue.Push(user(1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			tr, k := newTestTrunk()
			if err := tr.Audit(); err != nil {
				t.Fatalf("fresh trunk: %v", err)
			}
			tc.plant(tr, k)
			if err := tr.Audit(); err == nil || err.Error() != tc.want {
				t.Errorf("Audit = %v, want %q", err, tc.want)
			}
		})
	}
}

// One trunk through transmit, complete, fail mid-transmission, repair: the
// sequence behind the double-transmitter and polluted-measurement bugs.
func TestTrunkFlap(t *testing.T) {
	tr, k := newTestTrunk()
	floor := tr.Module.Floor()
	if cost, _ := tr.Module.Update(0); cost != floor || tr.Advertised() != floor {
		t.Fatalf("setup: a fresh idle HN-SPF trunk advertises %v, want its floor %v", cost, floor)
	}
	reset := core.DefaultParams(topology.T56).MaxCost // a repaired line eases in from the top (§5.4)

	// A full transmission: Done books queueing + transmission + processing.
	enq := 3 * sim.Millisecond
	for seq := uint64(1); seq <= 3; seq++ {
		p := user(seq)
		p.Enqueued = enq
		tr.Queue.Push(p)
	}
	first, tx, _ := transmit(tr, k)
	if first == nil || first.Seq != 1 || tx != sim.FromSeconds(600/topology.T56.Bandwidth()) {
		t.Fatalf("Next = %+v for %v, want packet 1 for 600 bits at 56 kb/s", first, tx)
	}
	if p, _ := tr.Next(); p != nil {
		t.Fatal("Next handed out a second packet while transmitting")
	}
	held := 0
	tr.Holding(func(*Packet) { held++ })
	if held != 3 || tr.pkt != first {
		t.Fatalf("Holding visited %d packets, Sending = %v; want 3 and packet 1", held, tr.pkt)
	}
	if got := tr.Done(enq + tx); got != first || got.Hops != 1 {
		t.Fatalf("Done = %+v, want packet 1 with one hop counted", got)
	}
	if got, want := tr.Meas.Take(), tx.Seconds()+ProcessingDelay.Seconds(); got != want {
		t.Errorf("measured delay %v, want transmission + processing = %v", got, want)
	}
	tr.Meas.Record(0.25) // a partial period the outage must discard

	// Fail mid-transmission: drop gets the transmitter's packet first, then
	// the backlog head to tail, and the completion is gone.
	second, _, h := transmit(tr, k)
	tr.Queue.Push(user(4))
	var dropped []uint64
	tr.Fail(func(p *Packet) { dropped = append(dropped, p.Seq) })
	if second.Seq != 2 || !slices.Equal(dropped, []uint64{2, 3, 4}) {
		t.Fatalf("Fail dropped packets %v, want [2 3 4]: transmitter, then backlog in order", dropped)
	}
	if h.Pending() {
		t.Error("Fail left the completion event pending")
	}
	if !tr.Down() || tr.pkt != nil || tr.Meas.Count() != 0 {
		t.Errorf("after Fail: down=%v sending=%v samples=%d, want down, idle, empty",
			tr.Down(), tr.pkt, tr.Meas.Count())
	}
	if got := tr.Advertised(); got != DownCost {
		t.Errorf("Advertised = %v while down, want DownCost", got)
	}
	if p, _ := tr.Next(); p != nil {
		t.Error("Next started a transmission on a down trunk")
	}
	if err := tr.Audit(); err != nil {
		t.Errorf("Audit after Fail flushed the trunk: %v", err)
	}

	// Repair: back in service at the reset cost, with nothing measured, and
	// the cancelled completion — should it fire anyway — starts nothing.
	tr.Restore()
	if tr.Down() || tr.Module.Cost() != reset || tr.Advertised() != reset || tr.Meas.Count() != 0 {
		t.Errorf("after Restore: down=%v cost=%v advertised=%v samples=%d, want up at %v with no samples",
			tr.Down(), tr.Module.Cost(), tr.Advertised(), tr.Meas.Count(), reset)
	}
	if got := tr.Done(k.Now()); got != nil {
		t.Errorf("stale Done returned %+v, want nil", got)
	}
	if err := tr.Audit(); err != nil {
		t.Errorf("after the flap: %v", err)
	}
	tr.Queue.Push(user(5))
	if p, _, _ := transmit(tr, k); p == nil || p.Seq != 5 {
		t.Errorf("transmitter did not restart after the repair: Next = %+v", p)
	}
	if cost, report := tr.Module.Update(0); !report || cost <= floor || cost >= reset {
		t.Errorf("first period after the repair: cost %v (report %v), want a reported step between the floor %v and %v",
			cost, report, floor, reset)
	}
}

// A transmission never completes at the instant it starts, however small
// the packet and fast the line.
func TestTrunkTransmissionAtLeastOneTick(t *testing.T) {
	tr, _ := newTestTrunk()
	tr.Queue.Push(&Packet{SizeBits: 0.001})
	if _, tx := tr.Next(); tx != 1 {
		t.Errorf("transmission time %d ticks, want the 1-tick floor", tx)
	}
}

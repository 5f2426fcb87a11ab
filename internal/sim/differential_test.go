package sim

// Differential test: the concrete event heap must order events exactly like
// a container/heap reference under an adversarial random mix of schedules,
// same-time ties and cancellations. Any divergence in fire order would be a
// silent determinism break for every simulation built on the kernel.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem / refHeap reimplement the kernel's pre-rewrite event queue: a
// container/heap over (at, seq) with lazily drained cancellations. Tail
// events sort after the normal events of their instant, by (key, seq).
type refItem struct {
	at      Time
	seq     uint64
	id      int
	stopped bool
	tail    bool
	key     int
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.tail != b.tail:
		return b.tail
	case a.key != b.key:
		return a.key < b.key
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

type refKernel struct {
	now   Time
	seq   uint64
	queue refHeap
}

func (k *refKernel) schedule(delay Time, id int) *refItem {
	if delay < 0 {
		delay = 0
	}
	it := &refItem{at: k.now + delay, seq: k.seq, id: id}
	k.seq++
	heap.Push(&k.queue, it)
	return it
}

func (k *refKernel) step() (int, bool) {
	for len(k.queue) > 0 {
		it := heap.Pop(&k.queue).(*refItem)
		if it.stopped {
			continue
		}
		k.now = it.at
		return it.id, true
	}
	return 0, false
}

// TestDifferentialCancelRescheduleTorture is the long-haul version: ~10k
// operations per seed with absolute-time scheduling, cancel-then-reschedule
// bursts (which stress slot reuse and generation tags), double-cancels and
// liveness probes of Handle.Pending against the reference's book-keeping.
func TestDifferentialCancelRescheduleTorture(t *testing.T) {
	t.Parallel()
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(100); seed < 100+seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		done := []bool{} // by id: fired in the reference
		newEvent := func(delay Time) {
			id := len(done)
			done = append(done, false)
			handles = append(handles, k.Schedule(delay, func(Time) { fired = append(fired, id) }))
			refHandles = append(refHandles, ref.schedule(delay, id))
		}
		refStep := func() {
			if id, ok := ref.step(); ok {
				refFired = append(refFired, id)
				done[id] = true
			}
		}

		for op := 0; op < 10000; op++ {
			switch r := rng.Float64(); {
			case r < 0.30:
				newEvent(Time(rng.Intn(40)) * Millisecond)
			case r < 0.45:
				// Absolute-time scheduling, including at == Now() (fires
				// this instant, after already-queued same-time events).
				at := k.Now() + Time(rng.Intn(40))*Millisecond
				id := len(done)
				done = append(done, false)
				h, err := k.ScheduleAt(at, func(Time) { fired = append(fired, id) })
				if err != nil {
					t.Fatalf("seed %d: ScheduleAt(%v) at now=%v: %v", seed, at, k.Now(), err)
				}
				handles = append(handles, h)
				refHandles = append(refHandles, ref.schedule(at-ref.now, id))
			case r < 0.60 && len(handles) > 0:
				// Cancel a random event, then immediately reschedule a new
				// one — the pattern that recycles pool slots hardest. Half
				// the time cancel the same handle again: the second Cancel
				// must report false whenever the first reported true.
				i := rng.Intn(len(handles))
				first := handles[i].Cancel()
				refHandles[i].stopped = true
				if first && rng.Intn(2) == 0 {
					if handles[i].Cancel() {
						t.Fatalf("seed %d: double Cancel of event %d reported true", seed, i)
					}
				}
				newEvent(Time(rng.Intn(40)) * Millisecond)
			case r < 0.65 && len(handles) > 0:
				// Liveness probe: a handle is pending iff the reference has
				// neither cancelled nor fired it.
				i := rng.Intn(len(handles))
				want := !refHandles[i].stopped && !done[refHandles[i].id]
				if got := handles[i].Pending(); got != want {
					t.Fatalf("seed %d: handle %d Pending() = %v, reference says %v", seed, i, got, want)
				}
			default:
				k.Step()
				refStep()
			}
		}
		for k.Step() {
		}
		for len(ref.queue) > 0 {
			refStep()
		}

		if len(fired) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(fired), len(refFired))
		}
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if k.now != ref.now {
			t.Fatalf("seed %d: clock %v, reference %v", seed, k.now, ref.now)
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, k.Pending())
		}
		if k.Fired() != uint64(len(fired)) {
			t.Fatalf("seed %d: Fired() = %d, %d callbacks ran", seed, k.Fired(), len(fired))
		}
	}
}

// runUntil mirrors Kernel.RunUntil: it fires every event with a timestamp
// <= deadline in (at, seq) order, then advances the clock to the deadline.
func (k *refKernel) runUntil(deadline Time, fired *[]int) {
	for len(k.queue) > 0 {
		top := k.queue[0]
		if top.stopped {
			heap.Pop(&k.queue)
			continue
		}
		if top.at > deadline {
			break
		}
		heap.Pop(&k.queue)
		k.now = top.at
		*fired = append(*fired, top.id)
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// TestDifferentialBurstsBetweenRuns interleaves RunUntil segments with
// schedule/cancel bursts issued while the kernel is idle — the regime the
// step-driven differential tests never enter. Each RunUntil's final peek
// leaves the scan parked on the next event beyond the deadline, so a burst
// big enough to force a grow-retune (or a below-window detour through the
// ladder) rebuilds the calendar around it; fire order must still match the
// reference heap exactly.
func TestDifferentialBurstsBetweenRuns(t *testing.T) {
	t.Parallel()
	for seed := int64(40); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		at := func(at Time) {
			id := len(handles)
			h, err := k.ScheduleAt(at, func(Time) { fired = append(fired, id) })
			if err != nil {
				t.Fatalf("seed %d: ScheduleAt(%v) at now=%v: %v", seed, at, k.Now(), err)
			}
			handles = append(handles, h)
			refHandles = append(refHandles, ref.schedule(at-ref.now, id))
		}

		for round := 0; round < 40; round++ {
			// Burst while idle: mostly near-term (dense, retune-forcing),
			// some same-instant ties, a few far-future ladder entries.
			for i, n := 0, rng.Intn(400); i < n; i++ {
				switch r := rng.Float64(); {
				case r < 0.80:
					at(k.Now() + Time(rng.Intn(4000))*Microsecond)
				case r < 0.90:
					at(k.Now())
				default:
					at(k.Now() + Time(rng.Intn(100))*Second)
				}
			}
			for i, n := 0, rng.Intn(20); i < n && len(handles) > 0; i++ {
				j := rng.Intn(len(handles))
				handles[j].Cancel()
				refHandles[j].stopped = true
			}
			deadline := k.Now() + Time(rng.Intn(3000))*Microsecond
			k.RunUntil(deadline)
			ref.runUntil(deadline, &refFired)
			if len(fired) != len(refFired) {
				t.Fatalf("seed %d round %d: fired %d events, reference fired %d",
					seed, round, len(fired), len(refFired))
			}
			if k.Now() != ref.now {
				t.Fatalf("seed %d round %d: clock %v, reference %v", seed, round, k.Now(), ref.now)
			}
		}
		drain(k)
		ref.runUntil(maxTime, &refFired)

		if len(fired) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(fired), len(refFired))
		}
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, k.Pending())
		}
	}
}

// TestDifferentialStopMidInstantThenRetune stops stepping between two
// events of one instant, peeks with NextEventTime, then forces grow-retunes
// with a dense burst before resuming — the PR 6 hotfix class (calendar
// rebuilt after a peek) combined with the resume mid-instant. The eventual
// fire order must match the reference heap: a lost or reordered remainder
// of the stopped instant would diverge.
func TestDifferentialStopMidInstantThenRetune(t *testing.T) {
	t.Parallel()
	for seed := int64(300); seed < 308; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		at := func(at Time, fn Event) int {
			id := len(handles)
			h, err := k.ScheduleAt(at, fn)
			if err != nil {
				t.Fatalf("seed %d: ScheduleAt(%v) at now=%v: %v", seed, at, k.Now(), err)
			}
			handles = append(handles, h)
			refHandles = append(refHandles, ref.schedule(at-ref.now, id))
			return id
		}
		rec := func(id *int) Event { return func(Time) { fired = append(fired, *id) } }

		for round := 0; round < 25; round++ {
			// A run of same-instant events, stepped up to a random depth.
			batchAt := k.Now() + Time(1+rng.Intn(2000))*Microsecond
			n := 3 + rng.Intn(12)
			stopAt := rng.Intn(n)
			stopped := false
			for i := 0; i < n; i++ {
				id := new(int)
				if i == stopAt {
					*id = at(batchAt, func(Time) {
						fired = append(fired, *id)
						stopped = true
					})
				} else {
					*id = at(batchAt, rec(id))
				}
			}
			deadline := batchAt + Time(rng.Intn(3000))*Microsecond
			for !stopped && k.Step() {
			}
			if k.Now() != batchAt {
				t.Fatalf("seed %d round %d: stopped clock %v, want %v",
					seed, round, k.Now(), batchAt)
			}
			// Peek the earliest unfired event (possibly the instant's
			// remainder), then rebuild the calendar under it: a burst
			// dense enough to force one or more grow-retunes, plus
			// cancels of random pending events.
			k.NextEventTime()
			for i, m := 0, 200+rng.Intn(400); i < m; i++ {
				id := new(int)
				*id = at(k.Now()+Time(rng.Intn(4000))*Microsecond, rec(id))
			}
			for i, m := 0, rng.Intn(10); i < m; i++ {
				// The kernel is mid-round ahead of the reference here, so a
				// false Cancel means the event already fired; only a true
				// Cancel may suppress the reference copy.
				j := rng.Intn(len(handles))
				if handles[j].Cancel() {
					refHandles[j].stopped = true
				}
			}
			k.RunUntil(deadline)
			ref.runUntil(deadline, &refFired)
			if len(fired) != len(refFired) {
				t.Fatalf("seed %d round %d: fired %d events, reference fired %d",
					seed, round, len(fired), len(refFired))
			}
			if k.Now() != ref.now {
				t.Fatalf("seed %d round %d: clock %v, reference %v", seed, round, k.Now(), ref.now)
			}
		}
		drain(k)
		ref.runUntil(maxTime, &refFired)
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if len(fired) != len(refFired) || k.Pending() != 0 {
			t.Fatalf("seed %d: fired %d (reference %d), %d pending",
				seed, len(fired), len(refFired), k.Pending())
		}
	}
}

// top prunes cancelled items off the heap and returns the earliest live
// one, or nil.
func (k *refKernel) top() *refItem {
	for len(k.queue) > 0 && k.queue[0].stopped {
		heap.Pop(&k.queue)
	}
	if len(k.queue) == 0 {
		return nil
	}
	return k.queue[0]
}

// refMin returns the id of the reference's earliest live event, or -1 —
// the event a completed RunUntil's final peek stopped at.
func (k *refKernel) refMin() int {
	if it := k.top(); it != nil {
		return it.id
	}
	return -1
}

// TestDifferentialCancelRescheduleAcrossGap targets the event a completed
// RunUntil's final peek stopped at: cancel exactly that minimum in the idle
// gap, reschedule replacements at the same instant, and run again. A kernel
// that carried the peek across the gap would fire a dead slot or skip the
// new minimum.
func TestDifferentialCancelRescheduleAcrossGap(t *testing.T) {
	t.Parallel()
	for seed := int64(500); seed < 508; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		at := func(at Time) {
			id := len(handles)
			h, err := k.ScheduleAt(at, func(Time) { fired = append(fired, id) })
			if err != nil {
				t.Fatalf("seed %d: ScheduleAt(%v) at now=%v: %v", seed, at, k.Now(), err)
			}
			handles = append(handles, h)
			refHandles = append(refHandles, ref.schedule(at-ref.now, id))
		}

		for round := 0; round < 60; round++ {
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				at(k.Now() + Time(rng.Intn(2500))*Microsecond)
			}
			deadline := k.Now() + Time(rng.Intn(2000))*Microsecond
			k.RunUntil(deadline) // final peek stops at the minimum beyond deadline
			ref.runUntil(deadline, &refFired)

			// Cancel that minimum itself, half the time twice.
			if min := ref.refMin(); min >= 0 {
				handles[min].Cancel()
				refHandles[min].stopped = true
				if rng.Intn(2) == 0 {
					handles[min].Cancel()
				}
				// Reschedule at the dead minimum's instant so the
				// replacement must take its place at the front.
				reAt := refHandles[min].at
				if reAt >= k.Now() {
					at(reAt)
				}
			}
			if len(fired) != len(refFired) {
				t.Fatalf("seed %d round %d: fired %d events, reference fired %d",
					seed, round, len(fired), len(refFired))
			}
		}
		drain(k)
		ref.runUntil(maxTime, &refFired)
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if len(fired) != len(refFired) || k.Pending() != 0 {
			t.Fatalf("seed %d: fired %d (reference %d), %d pending",
				seed, len(fired), len(refFired), k.Pending())
		}
	}
}

// TestDifferentialTickersAcrossRetune runs Every tickers through bursts
// that force grow-retunes. The reference mirrors a ticker by rescheduling
// its id immediately after it fires — consuming the same sequence number
// the kernel's re-arm consumes — so any retune that dropped or reordered a
// ticker's next occurrence diverges.
func TestDifferentialTickersAcrossRetune(t *testing.T) {
	t.Parallel()
	for seed := int64(700); seed < 706; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		nTickers := 2 + rng.Intn(3)
		periods := make([]Time, nTickers)
		for i := 0; i < nTickers; i++ {
			i := i
			periods[i] = Time(200+rng.Intn(1500)) * Microsecond
			k.Every(periods[i], func(Time) { fired = append(fired, -1-i) })
			ref.schedule(periods[i], -1-i)
		}
		nextID := 0
		refStep := func() {
			id, ok := ref.step()
			if !ok {
				return
			}
			refFired = append(refFired, id)
			if id < 0 {
				// A ticker: mirror the kernel's immediate re-arm.
				ref.schedule(periods[-1-id], id)
			}
		}

		for op := 0; op < 6000; op++ {
			switch r := rng.Float64(); {
			case r < 0.30:
				// Dense burst instant: enough same-window events to force
				// grow-retunes while ticker occurrences are in the buckets.
				n := 1
				if rng.Intn(20) == 0 {
					n = 150 + rng.Intn(150)
				}
				for i := 0; i < n; i++ {
					delay := Time(rng.Intn(3000)) * Microsecond
					id := nextID
					nextID++
					k.Schedule(delay, func(Time) { fired = append(fired, id) })
					ref.schedule(delay, id)
				}
			default:
				k.Step()
				refStep()
			}
		}
		// Every burst event lies within 3 ms of the last schedule; step both
		// sides past them, leaving only the tickers queued.
		end := k.Now() + 3*Millisecond
		for top := ref.top(); top != nil && top.at <= end; top = ref.top() {
			k.Step()
			refStep()
		}

		if len(fired) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(fired), len(refFired))
		}
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if k.now != ref.now {
			t.Fatalf("seed %d: clock %v, reference %v", seed, k.now, ref.now)
		}
		if k.Pending() != nTickers {
			t.Fatalf("seed %d: %d events pending after the bursts, want the %d tickers", seed, k.Pending(), nTickers)
		}
	}
}

// TestDifferentialChurnRetune keeps a self-replacing population of 100
// events of which one in four lands 0.1–1 s out, far beyond the 16-ms boot
// window, while the rest fire within 4 ms. Neither over-fill nor width drift
// fires, so only ladder churn — a quarter of the fires leaving through the
// ladder — can retune the calendar, mid-run, between RunUntil gaps with
// cancels and replacements made while the kernel is idle. Fire order must
// match the reference heap throughout, and after the retune the far events
// must fit the window.
func TestDifferentialChurnRetune(t *testing.T) {
	t.Parallel()
	for seed := int64(900); seed < 906; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		delay := func() Time {
			if rng.Intn(4) == 0 {
				return 100*Millisecond + Time(rng.Intn(900))*Millisecond
			}
			return Time(rng.Intn(4000)) * Microsecond
		}
		stopping := false
		var schedule func(at Time)
		schedule = func(at Time) {
			id := len(handles)
			h, err := k.ScheduleAt(at, func(now Time) {
				fired = append(fired, id)
				if !stopping {
					schedule(now + delay()) // replace itself
				}
			})
			if err != nil {
				t.Fatalf("seed %d: ScheduleAt(%v) at now=%v: %v", seed, at, k.Now(), err)
			}
			handles = append(handles, h)
			refHandles = append(refHandles, ref.schedule(at-ref.now, id))
		}

		for i := 0; i < 100; i++ {
			schedule(delay())
		}
		var beforeRetune Stats
		for round := 0; round < 60; round++ {
			for i, n := 0, rng.Intn(4); i < n; i++ {
				j := rng.Intn(len(handles))
				if handles[j].Cancel() {
					refHandles[j].stopped = true
					schedule(k.Now() + delay())
				}
			}
			deadline := k.Now() + Time(100+rng.Intn(200))*Millisecond
			k.RunUntil(deadline)
			ref.runUntil(deadline, &refFired)
			if len(fired) != len(refFired) || k.Now() != ref.now {
				t.Fatalf("seed %d round %d: fired %d events at %v, reference fired %d at %v",
					seed, round, len(fired), k.Now(), len(refFired), ref.now)
			}
			if st := k.Stats(); st.Retunes == 0 {
				beforeRetune = st
			}
		}
		st := k.Stats()
		after := float64(st.LadderPops-beforeRetune.LadderPops) / float64(st.Fired-beforeRetune.Fired)
		if st.Retunes < 1 || beforeRetune.Fired == 0 || after > 0.05 {
			t.Errorf("seed %d: %d retunes, the first after %d fires; %.1f%% of later fires through the ladder, want >= 1 retune mid-run and <= 5%%",
				seed, st.Retunes, beforeRetune.Fired, 100*after)
		}

		stopping = true
		drain(k)
		ref.runUntil(maxTime, &refFired)
		if len(fired) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(fired), len(refFired))
		}
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, k.Pending())
		}
	}
}

func TestDifferentialFireOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		ref := &refKernel{}

		var fired, refFired []int
		var handles []Handle
		var refHandles []*refItem
		nextID := 0

		// A random interleaving of schedule bursts (with deliberate time
		// collisions), cancellations of random live events, and steps.
		for op := 0; op < 2000; op++ {
			switch r := rng.Float64(); {
			case r < 0.45:
				delay := Time(rng.Intn(50)) * Millisecond // collisions likely
				id := nextID
				nextID++
				handles = append(handles, k.Schedule(delay, func(Time) { fired = append(fired, id) }))
				refHandles = append(refHandles, ref.schedule(delay, id))
			case r < 0.60 && len(handles) > 0:
				i := rng.Intn(len(handles))
				handles[i].Cancel()
				refHandles[i].stopped = true
			default:
				k.Step()
				if id, ok := ref.step(); ok {
					refFired = append(refFired, id)
				}
			}
		}
		// Drain both completely.
		for k.Step() {
		}
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			refFired = append(refFired, id)
		}

		if len(fired) != len(refFired) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(fired), len(refFired))
		}
		for i := range fired {
			if fired[i] != refFired[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, reference %d",
					seed, i, fired[i], refFired[i])
			}
		}
		if k.now != ref.now {
			t.Fatalf("seed %d: clock %v, reference %v", seed, k.now, ref.now)
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, k.Pending())
		}
	}
}

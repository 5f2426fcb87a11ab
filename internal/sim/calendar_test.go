package sim

// Calendar-queue pathological-schedule tests. The differential tests in
// differential_test.go cover the adversarial random mix; the cases here
// aim at the calendar's specific failure modes: timestamps at the Time
// extremes (window anchoring, shift arithmetic and saturation near
// MaxInt64), zero-delay self-rescheduling storms (sorted-front inserts at
// the firing instant), resize thrash between sparse and dense epochs
// (retune under a live mixed population), scheduling below a stale window
// after a long RunUntil gap, a retune between two runs, and the counter and
// Stop semantics visible from inside a run of same-instant events.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mirror pairs the kernel under test with the container/heap reference,
// assigning ids in schedule order so fire sequences can be compared.
type mirror struct {
	k   *Kernel
	ref *refKernel

	fired, refFired []int
	handles         []Handle
	refHandles      []*refItem
}

func newMirror() *mirror { return &mirror{k: New(), ref: &refKernel{}} }

// at schedules an event at the absolute time in both queues and returns
// its id. The reference delay is computed against ref.now so the mirror
// stays correct even when called from inside a kernel callback (where the
// reference clock lags behind the event being fired).
func (m *mirror) at(t *testing.T, at Time) int {
	t.Helper()
	id := len(m.handles)
	h, err := m.k.ScheduleAt(at, func(Time) { m.fired = append(m.fired, id) })
	if err != nil {
		t.Fatalf("ScheduleAt(%v) at now=%v: %v", at, m.k.Now(), err)
	}
	m.handles = append(m.handles, h)
	m.refHandles = append(m.refHandles, m.ref.schedule(at-m.ref.now, id))
	return id
}

// cancel cancels event id in both queues.
func (m *mirror) cancel(id int) {
	m.handles[id].Cancel()
	m.refHandles[id].stopped = true
}

// step fires one event in each queue and checks they agree.
func (m *mirror) step(t *testing.T) bool {
	t.Helper()
	ok := m.k.Step()
	id, refOK := m.ref.step()
	if ok != refOK {
		t.Fatalf("Step() = %v, reference = %v (after %d fires)", ok, refOK, len(m.fired))
	}
	if !ok {
		return false
	}
	m.refFired = append(m.refFired, id)
	n := len(m.refFired)
	if len(m.fired) != n || m.fired[n-1] != id {
		t.Fatalf("fire %d: got event %d, reference %d", n-1, m.fired[n-1], id)
	}
	if m.k.Now() != m.ref.now {
		t.Fatalf("fire %d: clock %v, reference %v", n-1, m.k.Now(), m.ref.now)
	}
	return true
}

// drain steps both queues to empty and checks the final state agrees.
func (m *mirror) drain(t *testing.T) {
	t.Helper()
	for m.step(t) {
	}
	if m.k.Pending() != 0 {
		t.Fatalf("%d events pending after drain", m.k.Pending())
	}
}

// TestTimeExtremes schedules events at the representable extremes — time
// zero, the far future near MaxInt64, and maxTime itself (with a FIFO
// tie) — alongside ordinary near-term events. The window anchoring and
// shift arithmetic must survive absolute bucket numbers near 2^63/width,
// and the ladder must migrate down correctly across a span of millennia.
func TestTimeExtremes(t *testing.T) {
	t.Parallel()
	m := newMirror()
	m.at(t, 0)                      // fires at the current instant
	m.at(t, 0)                      // FIFO tie at time zero
	m.at(t, maxTime)                // the last representable instant
	m.at(t, 3*Millisecond)          // ordinary near-term event
	m.at(t, maxTime-1)              // just below the extreme
	m.at(t, maxTime)                // FIFO tie at the extreme
	m.at(t, 500*365*24*3600*Second) // five centuries out, mid-ladder
	m.at(t, 1)                      // one microsecond
	m.drain(t)
	if m.k.Now() != maxTime {
		t.Fatalf("clock after drain = %v, want maxTime", m.k.Now())
	}

	// The same extremes under Run: both maxTime events fire (the deadline
	// comparison is inclusive at the extreme).
	k := New()
	var order []int
	for i, at := range []Time{maxTime, 0, maxTime, 7 * Second} {
		id := i
		if _, err := k.ScheduleAt(at, func(Time) { order = append(order, id) }); err != nil {
			t.Fatalf("ScheduleAt(%v): %v", at, err)
		}
	}
	drain(k)
	want := []int{1, 3, 0, 2}
	if len(order) != len(want) {
		t.Fatalf("Run fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Run fire order %v, want %v", order, want)
		}
	}
	if k.Now() != maxTime || k.Pending() != 0 {
		t.Fatalf("after Run: now=%v pending=%d, want maxTime and 0", k.Now(), k.Pending())
	}
}

// TestTimeSaturation drives every place a duration becomes a timestamp to
// the int64 boundary. "Never" — an infinite or absurdly long delay, which a
// source with a vanishing packet rate draws — must stay never: before the
// arithmetic saturated, FromSeconds(+Inf) was MinInt64 (clamped to a zero
// delay) and now+MaxInt64 wrapped negative, so the event fired at once and
// dragged the clock below zero.
func TestTimeSaturation(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		s    float64
		want Time
	}{
		{math.Inf(1), maxTime},
		{math.Inf(-1), -maxTime},
		{9.3e12, maxTime}, // just past MaxInt64 microseconds
		{-9.3e12, -maxTime},
		{1e300, maxTime},
		{1 / 1e-30, maxTime}, // the mean gap of a 1e-30 pkt/s source
		{9.2e12, 9_200_000_000_000 * Second},
		{-9.2e12, -9_200_000_000_000 * Second},
	} {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "FromSeconds(NaN)") {
				t.Errorf("FromSeconds(NaN) panicked with %q, want the guard's name", r)
			}
		}()
		FromSeconds(math.NaN())
	}()

	for _, c := range []struct{ t, d, want Time }{
		{10 * Second, maxTime, maxTime},
		{maxTime - 1, 1, maxTime},
		{maxTime - 1, 0, maxTime - 1},
		{maxTime - 1, 2, maxTime},
		{maxTime, maxTime, maxTime},
		{5, -3, 2},
		{0, -5, -5},
		{-maxTime, -1, -maxTime},
		{-10 * Second, -maxTime, -maxTime},
		{maxTime, -maxTime, 0},
	} {
		if got := c.t.Add(c.d); got != c.want {
			t.Errorf("Time(%d).Add(%d) = %d, want %d", c.t, c.d, got, c.want)
		}
	}

	// The relative schedule forms and the ticker, from a clock past zero.
	k := New()
	k.RunUntil(10 * Second)
	var order []string
	rec := func(name string) Event { return func(Time) { order = append(order, name) } }
	k.Schedule(maxTime, rec("max"))                // saturates
	k.Schedule(maxTime-1, rec("max-1"))            // saturates: now+delay is past the end
	k.Schedule(maxTime-10*Second-1, rec("before")) // lands on maxTime-1 exactly
	k.ScheduleCall(maxTime, func(Time, any) { order = append(order, "call") }, nil)
	k.Every(maxTime, rec("tick"))
	k.Schedule(-maxTime, rec("neg")) // negative delays clamp to zero, as ever
	k.Schedule(-1, rec("neg1"))
	if at, ok := k.NextEventTime(); !ok || at != 10*Second {
		t.Fatalf("NextEventTime() = %v, %v; want the clamped events at 10s", at, ok)
	}
	last := k.Now()
	for _, until := range []Time{10 * Second, 11 * Second, 3600 * Second, maxTime - 2} {
		k.RunUntil(until)
		if k.Now() < last || k.Now() != until {
			t.Fatalf("RunUntil(%v) left the clock at %v (was %v)", until, k.Now(), last)
		}
		last = k.Now()
	}
	if len(order) != 2 || order[0] != "neg" || order[1] != "neg1" {
		t.Fatalf("fired %v before maxTime-2, want only the two clamped events", order)
	}
	if at, ok := k.NextEventTime(); !ok || at != maxTime-1 || k.Pending() != 5 {
		t.Fatalf("NextEventTime() = %v, %v with %d pending; want maxTime-1 and 5", at, ok, k.Pending())
	}
	// Only a run to the end of time reaches them, in (at, seq) order; the
	// ticker then re-arms at maxTime itself, saturated, never wrapped.
	want := []string{"neg", "neg1", "before", "max", "max-1", "call", "tick"}
	for len(order) < len(want) && k.Step() {
	}
	if len(order) != len(want) {
		t.Fatalf("steps fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("steps fired %v, want %v", order, want)
		}
	}
	if at, ok := k.NextEventTime(); k.Now() != maxTime || !ok || at != maxTime || k.Pending() != 1 {
		t.Fatalf("after the steps: clock %v, next %v, %v with %d pending; want maxTime, the re-armed tick alone",
			k.Now(), at, ok, k.Pending())
	}
}

// TestZeroDelayStorm drives a self-rescheduling zero-delay chain — each
// firing schedules the next at the same instant — interleaved with
// pre-queued same-instant events. The chain stresses the sorted front's
// insert path: every reschedule must go behind everything already queued
// at the instant (higher sequence number), never preempt it, and the clock
// must not advance.
func TestZeroDelayStorm(t *testing.T) {
	t.Parallel()
	const depth = 5000
	base := 10 * Millisecond

	// Step-by-step, cross-checked against the reference heap.
	m := newMirror()
	var storm func(Time)
	remaining := depth
	storm = func(Time) {
		if remaining == 0 {
			return
		}
		remaining--
		id := len(m.handles)
		h, err := m.k.ScheduleAt(m.k.Now(), func(now Time) {
			m.fired = append(m.fired, id)
			storm(now)
		})
		if err != nil {
			t.Fatalf("storm reschedule: %v", err)
		}
		m.handles = append(m.handles, h)
		m.refHandles = append(m.refHandles, m.ref.schedule(m.k.Now()-m.ref.now, id))
	}
	first := len(m.handles)
	h, err := m.k.ScheduleAt(base, func(now Time) {
		m.fired = append(m.fired, first)
		storm(now)
	})
	if err != nil {
		t.Fatalf("ScheduleAt: %v", err)
	}
	m.handles = append(m.handles, h)
	m.refHandles = append(m.refHandles, m.ref.schedule(base, first))
	m.at(t, base) // pre-queued tie: must fire before any storm reschedule
	m.at(t, base)
	m.drain(t)
	if m.k.Now() != base {
		t.Fatalf("clock advanced to %v during a zero-delay storm at %v", m.k.Now(), base)
	}
	if len(m.fired) != depth+3 {
		t.Fatalf("storm fired %d events, want %d", len(m.fired), depth+3)
	}

	// The same storm under Run: the whole chain fires at one instant, and
	// FIFO-by-sequence means fire order is exactly schedule order.
	k := New()
	var order []int
	n := 0
	var chain Event
	chain = func(Time) {
		id := n
		n++
		order = append(order, id)
		if n < depth {
			k.Schedule(0, chain)
		}
	}
	k.Schedule(base, chain)
	drain(k)
	if k.Now() != base {
		t.Fatalf("Run clock = %v, want %v", k.Now(), base)
	}
	if len(order) != depth {
		t.Fatalf("Run storm fired %d, want %d", len(order), depth)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("storm fire order broke FIFO at %d: got id %d", i, id)
		}
	}
	if k.Fired() != depth || k.Pending() != 0 {
		t.Fatalf("after storm: Fired=%d Pending=%d, want %d and 0", k.Fired(), k.Pending(), depth)
	}
}

// TestResizeThrash alternates dense epochs (thousands of events packed
// into two milliseconds) with sparse ones (a handful spread over minutes),
// draining only half the queue between epochs so every retune rebuilds a
// live mixed population, and cancelling a slice of each epoch to stress
// lazy pruning through the rebuilds. Fire order is cross-checked against
// the reference heap throughout.
func TestResizeThrash(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	m := newMirror()
	for epoch := 0; epoch < 8; epoch++ {
		start := len(m.handles)
		if epoch%2 == 0 {
			for i := 0; i < 3000; i++ {
				m.at(t, m.k.Now()+Time(rng.Intn(2000))*Microsecond)
			}
		} else {
			for i := 0; i < 100; i++ {
				m.at(t, m.k.Now()+Time(rng.Intn(200))*Second)
			}
		}
		if epoch == 0 && len(m.k.bucket) <= minBuckets {
			t.Fatalf("dense epoch left %d buckets; the calendar never grew", len(m.k.bucket))
		}
		// Cancel a tenth of this epoch's events.
		for id := start; id < len(m.handles); id++ {
			if rng.Intn(10) == 0 {
				m.cancel(id)
			}
		}
		// Drain half the queue, leaving a mixed population for the next
		// epoch's retunes to rebuild.
		for i := m.k.Pending() / 2; i > 0; i-- {
			if !m.step(t) {
				break
			}
		}
	}
	m.drain(t)
	if m.k.Fired() != uint64(len(m.fired)) {
		t.Fatalf("Fired() = %d, %d callbacks ran", m.k.Fired(), len(m.fired))
	}
}

// TestRetuneBetweenRuns retunes the calendar between two runs, after a
// RunUntil's final peek has found (and sorted the front around) the next
// event without firing it. A burst large enough to trigger the grow-retune
// in enqueueSlow rebuilds every bucket as an unsorted chain; a subsequent
// same-instant tie chain-pushed into the minimum's bucket then sits ahead
// of the earlier-scheduled minimum. A kernel that remembered the minimum
// slot across the rebuild unlinked the wrong chain head here — silently
// losing the event and desyncing calN (the PR 6 hotfix).
func TestRetuneBetweenRuns(t *testing.T) {
	t.Parallel()
	m := newMirror()
	min := 10 * Millisecond
	m.at(t, min) // parked beyond the deadline: RunUntil peeks it, never fires
	m.k.RunUntil(5 * Millisecond)
	m.ref.now = 5 * Millisecond
	if len(m.fired) != 0 {
		t.Fatalf("%d events fired before the deadline", len(m.fired))
	}

	// Burst between runs: overfills the initial calendar and forces the
	// grow-retune.
	for i := 0; i < 300; i++ {
		m.at(t, min+Millisecond+Time(i%64)*Microsecond)
	}
	// Same-instant tie in the minimum's bucket: lands ahead of it in the
	// rebuilt (unsorted) chain, but must fire after it (FIFO).
	m.at(t, min)
	m.drain(t)
	if m.k.Now() != min+Millisecond+63*Microsecond {
		t.Fatalf("clock after drain = %v", m.k.Now())
	}
}

// TestBelowWindowAfterGap parks far-future work on the overflow ladder,
// advances the clock across a long idle gap with RunUntil, then schedules
// immediate events. The new events' buckets lie far beyond the stale
// calendar window, so they must detour through the ladder and migrate
// back down in order — the re-anchor path that a quiescent queue skips.
func TestBelowWindowAfterGap(t *testing.T) {
	t.Parallel()
	m := newMirror()
	m.at(t, 100*Second) // parked on the ladder
	m.at(t, 200*Second)

	m.k.RunUntil(50 * Second)
	m.ref.now = 50 * Second
	if len(m.fired) != 0 {
		t.Fatalf("%d events fired before the gap deadline", len(m.fired))
	}

	// Now() is deep beyond the window anchored at time zero.
	m.at(t, m.k.Now())
	m.at(t, m.k.Now()+Millisecond)
	m.at(t, m.k.Now()) // same-instant tie behind the first
	m.drain(t)
	if m.k.Now() != 200*Second {
		t.Fatalf("clock after drain = %v, want 200s", m.k.Now())
	}
}

// TestCounterSemanticsMidInstant pins the documented Fired/Pending counter
// semantics as observed from inside a run of same-instant events: Fired
// includes the observing event itself, counted one at a time, and Pending
// counts the instant's unfired remainder alongside later events —
// including a same-instant event one of them schedules.
func TestCounterSemanticsMidInstant(t *testing.T) {
	t.Parallel()
	k := New()
	at := 5 * Millisecond
	later := 10 * Millisecond

	type obs struct {
		fired   uint64
		pending int
	}
	var seen []obs
	look := func(Time) { seen = append(seen, obs{k.Fired(), k.Pending()}) }

	mustAt := func(at Time, fn Event) {
		if _, err := k.ScheduleAt(at, fn); err != nil {
			t.Fatalf("ScheduleAt(%v): %v", at, err)
		}
	}
	mustAt(at, look)            // e1
	mustAt(at, func(now Time) { // e2: schedules e5 at its own instant
		look(now)
		mustAt(now, look) // e5
	})
	mustAt(at, look)    // e3
	mustAt(later, look) // e4
	drain(k)

	// Fire order: e1, e2, e3, e5 (last of the instant), then e4.
	want := []obs{
		{1, 3}, // e1: itself fired; e2, e3, e4 pending
		{2, 2}, // e2: e3, e4 pending (e5 scheduled after the look)
		{3, 2}, // e3: e5 (same instant) and e4 pending
		{4, 1}, // e5: e4 pending
		{5, 0}, // e4
	}
	if len(seen) != len(want) {
		t.Fatalf("observed %d events, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i] != w {
			t.Fatalf("event %d observed Fired=%d Pending=%d, want Fired=%d Pending=%d",
				i, seen[i].fired, seen[i].pending, w.fired, w.pending)
		}
	}
}

// TestStopMidInstant stops stepping between two events of one instant: the
// unfired remainder must stay queued, the clock must hold at the stopped
// instant, and a resumed run must continue exactly where the first left off.
func TestStopMidInstant(t *testing.T) {
	t.Parallel()
	k := New()
	at := 3 * Millisecond
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		if _, err := k.ScheduleAt(at, func(Time) { order = append(order, name) }); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}

	k.Step()
	k.Step()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("two steps fired %v, want [a b]", order)
	}
	if k.Now() != at || k.Pending() != 1 {
		t.Fatalf("after two steps: now=%v pending=%d, want %v and 1", k.Now(), k.Pending(), at)
	}

	drain(k)
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("resumed run fired %v, want [a b c]", order)
	}
	if k.Now() != at || k.Pending() != 0 {
		t.Fatalf("after resume: now=%v pending=%d, want %v and 0", k.Now(), k.Pending(), at)
	}
}

// TestRetuneFollowsBurst runs a sparse stretch — 64 tickers firing every
// 50–150 ms for several tune periods, so the calendar settles on
// millisecond buckets — and then a dense burst: 200 events rescheduling
// themselves 1 µs to 2 ms ahead, five fires a millisecond per event, the
// way a flood wave follows a quiet spell. The width check samples the rate
// of the last tunePeriod fires, so the first check after the burst begins
// must retune to microsecond buckets. Averaged since the last retune
// instead, the quiet stretch outweighs the burst for dozens of checks, the
// burst piles into a few wide buckets and three fires in four go through
// a front sort (one in five after the retune).
func TestRetuneFollowsBurst(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1987))
	k := New()
	var tick Event
	tick = func(now Time) { k.Schedule(50*Millisecond+Time(rng.Intn(100_000)), tick) }
	for i := 0; i < 64; i++ {
		k.Schedule(Time(rng.Intn(100_000)), tick)
	}
	// Sparse stretch: stop right after a width check, so the burst's first
	// check samples only its own fires (and the tickers among them).
	for k.Fired() < 4*tunePeriod {
		k.Step()
	}
	quiet := k.Stats()
	if quiet.Width < 256*Microsecond {
		t.Fatalf("after the sparse stretch: %+v; want buckets of 256 µs or more", quiet)
	}

	const burstFires = 4 * tunePeriod
	left := burstFires
	var hot Event
	hot = func(now Time) {
		if left--; left > 0 {
			k.Schedule(1+Time(rng.Intn(2000)), hot)
		}
	}
	for i := 0; i < 200; i++ {
		k.Schedule(1+Time(rng.Intn(2000)), hot)
	}
	for k.Fired() < quiet.Fired+tunePeriod {
		k.Step()
	}
	first := k.Stats()
	for left > 0 {
		k.Step()
	}
	burst := k.Stats()
	t.Logf("quiet %+v", quiet)
	t.Logf("first check of the burst %+v", first)
	t.Logf("end of the burst %+v", burst)
	if first.Retunes != quiet.Retunes+1 || first.Width > 8*Microsecond {
		t.Errorf("first check of the burst: %d retunes (%d before it), width %d µs; want one more retune, to buckets of 8 µs or less",
			first.Retunes, quiet.Retunes, int64(first.Width))
	}
	fires := burst.Fired - first.Fired
	if sorted := burst.Sorted - first.Sorted; sorted > fires/3 {
		t.Errorf("after the burst's first check, %d of %d fires went through a front sort; want at most a third", sorted, fires)
	}
}

package sim

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3 {
		t.Errorf("Milliseconds() = %v, want 3", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Errorf("String() = %q", s)
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var order []int
	k.Schedule(3*Second, func(Time) { order = append(order, 3) })
	k.Schedule(1*Second, func(Time) { order = append(order, 1) })
	k.Schedule(2*Second, func(Time) { order = append(order, 2) })
	drain(k)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Second, func(Time) { order = append(order, i) })
	}
	drain(k)
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events did not fire FIFO: %v", order)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	h := k.Schedule(Second, func(Time) { fired = true })
	if !h.Pending() {
		t.Error("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Error("first Cancel should report true")
	}
	if h.Cancel() {
		t.Error("second Cancel should report false")
	}
	drain(k)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := New()
	h := k.Schedule(Second, func(Time) {})
	drain(k)
	if h.Cancel() {
		t.Error("Cancel after firing should report false")
	}
	if h.Pending() {
		t.Error("fired event should not be pending")
	}
}

func TestScheduleAtPast(t *testing.T) {
	k := New()
	k.Schedule(2*Second, func(Time) {})
	drain(k)
	if _, err := k.ScheduleAt(Second, func(Time) {}); err == nil {
		t.Error("ScheduleAt in the past should error")
	}
}

// drain fires every pending event: a run to the end of time that leaves
// the clock at the last event instead of at the deadline.
func drain(k *Kernel) {
	for k.Step() {
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New()
	k.Schedule(Second, func(now Time) {
		k.Schedule(-5*Second, func(at Time) {
			if at != now {
				t.Errorf("negative delay fired at %v, want %v", at, now)
			}
		})
	})
	drain(k)
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []Time
	for i := 1; i <= 5; i++ {
		k.Schedule(Time(i)*Second, func(now Time) { fired = append(fired, now) })
	}
	k.RunUntil(3 * Second)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3s) fired %d events, want 3", len(fired))
	}
	if k.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
	k.RunUntil(10 * Second)
	if len(fired) != 5 {
		t.Errorf("second RunUntil fired %d total, want 5", len(fired))
	}
	if k.Now() != 10*Second {
		t.Errorf("clock should advance to the deadline, got %v", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := New()
	var at []Time
	k.Every(Second, func(now Time) { at = append(at, now) })
	k.RunUntil(3500 * Millisecond)
	if len(at) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(at), at)
	}
	for i, got := range at {
		if want := Time(i+1) * Second; got != want {
			t.Errorf("tick %d at %v, want %v", i, got, want)
		}
	}
}

func TestReentrantRunPanics(t *testing.T) {
	k := New()
	k.Schedule(Second, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant RunUntil did not panic")
			}
		}()
		k.RunUntil(2 * Second)
	})
	k.RunUntil(2 * Second)
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := New()
	depth := 0
	var grow func(now Time)
	grow = func(now Time) {
		depth++
		if depth < 100 {
			k.Schedule(Millisecond, grow)
		}
	}
	k.Schedule(0, grow)
	drain(k)
	if depth != 100 {
		t.Errorf("chained scheduling depth = %d, want 100", depth)
	}
	if k.Fired() != 100 {
		t.Errorf("Fired() = %d, want 100", k.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		var times []Time
		for _, d := range delays {
			k.Schedule(Time(d)*Millisecond, func(now Time) { times = append(times, now) })
		}
		drain(k)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	k := New()
	h1 := k.Schedule(1*Second, func(Time) {})
	k.Schedule(2*Second, func(Time) {})
	h3 := k.Schedule(3*Second, func(Time) {})
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending() = %d, want 3", got)
	}
	// A cancelled-but-undrained event must not be counted.
	h1.Cancel()
	if got := k.Pending(); got != 2 {
		t.Errorf("Pending() after one cancel = %d, want 2", got)
	}
	// Double-cancel must not double-count.
	h1.Cancel()
	if got := k.Pending(); got != 2 {
		t.Errorf("Pending() after double cancel = %d, want 2", got)
	}
	h3.Cancel()
	if got := k.Pending(); got != 1 {
		t.Errorf("Pending() after two cancels = %d, want 1", got)
	}
	// Draining the heap (firing the survivor) brings the count to zero.
	drain(k)
	if got := k.Pending(); got != 0 {
		t.Errorf("Pending() after run = %d, want 0", got)
	}
	if k.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1 (two of three were cancelled)", k.Fired())
	}
	// Cancelling an already-fired event must not disturb the count.
	h4 := k.Schedule(Second, func(Time) {})
	drain(k)
	h4.Cancel()
	if got := k.Pending(); got != 0 {
		t.Errorf("Pending() after cancelling fired event = %d, want 0", got)
	}
}

func TestPendingWithPeekDrain(t *testing.T) {
	// RunUntil drains cancelled events lazily while scanning for the next
	// live one; the counter must follow that path too.
	k := New()
	h := k.Schedule(1*Second, func(Time) {})
	k.Schedule(5*Second, func(Time) {})
	h.Cancel()
	k.RunUntil(2 * Second)
	if got := k.Pending(); got != 1 {
		t.Errorf("Pending() = %d, want 1 (only the 5s event remains)", got)
	}
}

// --- free-list, ScheduleCall and payload-retention tests (PR 3) ----------

func TestScheduleCallOrderingAndArgs(t *testing.T) {
	k := New()
	var got []int
	record := func(now Time, arg any) { got = append(got, arg.(int)) }
	k.ScheduleCall(3*Second, record, 3)
	k.ScheduleCall(1*Second, record, 1)
	k.Schedule(2*Second, func(Time) { got = append(got, 2) })
	drain(k)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestScheduleCallAtPast(t *testing.T) {
	// ScheduleTailCallAt is the absolute-time form of ScheduleCall.
	k := New()
	k.Schedule(2*Second, func(Time) {})
	drain(k)
	if _, err := k.ScheduleTailCallAt(Second, 0, func(Time, any) {}, nil); err == nil {
		t.Error("ScheduleTailCallAt in the past should error")
	}
	// The refusal is counted, whatever the caller does with the error, and
	// only the refusal: the clock's own instant is not the past.
	_, _ = k.ScheduleAt(Second, func(Time) {})
	_, _ = k.ScheduleTailCallAt(k.Now()-1, 0, func(Time, any) {}, nil)
	if _, err := k.ScheduleTailCallAt(k.Now(), 0, func(Time, any) {}, nil); err != nil {
		t.Error(err)
	}
	if st := k.Stats(); st.Rejected != 3 || st.Scheduled != 2 {
		t.Errorf("Stats() = %+v, want 3 rejected and 2 scheduled", st)
	}
}

func TestScheduleCallCancel(t *testing.T) {
	k := New()
	fired := false
	h := k.ScheduleCall(Second, func(Time, any) { fired = true }, nil)
	if !h.Cancel() {
		t.Error("first Cancel should report true")
	}
	drain(k)
	if fired {
		t.Error("cancelled ScheduleCall event fired")
	}
}

// TestCancelReleasesPayload: a cancelled event sits in its bucket until
// lazily drained; its callback (and everything the closure captured — in
// the simulator: packets, link state) must be released at cancel time, not
// at drain time.
func TestCancelReleasesPayload(t *testing.T) {
	k := New()
	payload := make([]byte, 1<<20)
	h := k.Schedule(Second, func(Time) { _ = payload[0] })
	hc := k.ScheduleCall(Second, func(Time, any) {}, &payload)
	// The closure form rides in arg: the same array releases both forms.
	if h.Cancel(); k.cfn[h.slot] != nil || k.arg[h.slot] != nil {
		t.Error("Cancel left the closure (and its captures) referenced")
	}
	if hc.Cancel(); k.cfn[hc.slot] != nil || k.arg[hc.slot] != nil {
		t.Error("Cancel left the callback/argument referenced")
	}
}

// TestCancelledEventDoesNotPinPayload proves the release end to end: after
// cancelling, the captured payload must become collectable even though the
// heap entry has not drained.
func TestCancelledEventDoesNotPinPayload(t *testing.T) {
	k := New()
	collected := make(chan struct{})
	func() {
		payload := new([1 << 20]byte)
		runtime.SetFinalizer(payload, func(*[1 << 20]byte) { close(collected) })
		h := k.Schedule(Second, func(Time) { _ = payload[0] })
		k.Schedule(2*Second, func(Time) {}) // keeps the heap non-empty
		h.Cancel()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled event still pins its captured payload")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestItemRecycling: fired slots return through the free-list, so the
// steady-state schedule+fire cycle allocates nothing.
func TestItemRecycling(t *testing.T) {
	k := New()
	fn := func(Time) {}
	h1 := k.Schedule(Second, fn)
	first := h1.slot
	drain(k)
	h2 := k.Schedule(Second, fn)
	if h2.slot != first {
		t.Error("fired slot was not recycled for the next schedule")
	}
	if h2.gen == h1.gen {
		t.Error("recycled slot kept its generation")
	}
}

// TestStaleHandleCannotTouchRecycledEntry: a Handle from a fired event must
// be inert even after its entry is reused by a new event.
func TestStaleHandleCannotTouchRecycledEntry(t *testing.T) {
	k := New()
	h1 := k.Schedule(Second, func(Time) {})
	drain(k)
	fired := false
	h2 := k.Schedule(Second, func(Time) { fired = true })
	if h1.slot != h2.slot {
		t.Fatal("test premise: the slot should have been recycled")
	}
	if h1.Cancel() {
		t.Error("stale Cancel reported success")
	}
	if h1.Pending() {
		t.Error("stale handle reports pending")
	}
	if !h2.Pending() {
		t.Error("stale Cancel killed the new occupant")
	}
	drain(k)
	if !fired {
		t.Error("new occupant did not fire after stale Cancel")
	}
}

// TestSteadyStateZeroAllocs is the acceptance criterion of the
// allocation-free core: once the free-list is primed, a schedule+fire cycle
// — closure-free or not — performs zero heap allocations.
func TestSteadyStateZeroAllocs(t *testing.T) {
	k := New()
	fired := 0
	var fn Event = func(Time) { fired++ }
	call := func(Time, any) {}
	arg := new(int)
	k.Schedule(Microsecond, fn)
	k.Step() // prime the free-list
	if avg := testing.AllocsPerRun(1000, func() {
		k.Schedule(Microsecond, fn)
		k.Step()
	}); avg != 0 {
		t.Errorf("Schedule+Step allocates %.1f objects/op in steady state, want 0", avg)
	}
	// A pre-built Event rides as the argument of the one callback form:
	// boxing a func value must not allocate, and it must actually fire.
	before := fired
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := k.ScheduleAt(k.Now()+Microsecond, fn); err != nil {
			t.Fatal(err)
		}
		k.Step()
	}); avg != 0 {
		t.Errorf("ScheduleAt+Step allocates %.1f objects/op in steady state, want 0", avg)
	}
	if fired-before < 1000 {
		t.Errorf("closure-form events fired %d times, want >= 1000", fired-before)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.ScheduleCall(Microsecond, call, arg)
		k.Step()
	}); avg != 0 {
		t.Errorf("ScheduleCall+Step allocates %.1f objects/op in steady state, want 0", avg)
	}
	// The absolute-time and tail variants, cancellation, the peek, and the
	// run loop: every entry point a packet engine calls per event.
	if avg := testing.AllocsPerRun(1000, func() {
		h, err := k.ScheduleAt(k.Now()+2*Microsecond, fn)
		if err != nil || !h.Pending() || !h.Cancel() {
			t.Fatal("ScheduleAt/Pending/Cancel failed")
		}
		if _, err := k.ScheduleTailCallAt(k.Now()+Microsecond, 0, call, arg); err != nil {
			t.Fatal(err)
		}
		at, ok := k.NextEventTime()
		if !ok {
			t.Fatal("NextEventTime found nothing")
		}
		k.RunUntil(at)
	}); avg != 0 {
		t.Errorf("ScheduleAt/ScheduleTailCallAt+Cancel+RunUntil allocates %.1f objects/op in steady state, want 0", avg)
	}
	k.Every(Microsecond, fn)
	k.Step() // prime the ticker's entry
	if avg := testing.AllocsPerRun(1000, func() { k.Step() }); avg != 0 {
		t.Errorf("ticker re-arm allocates %.1f objects/op in steady state, want 0", avg)
	}
}

package sim

// Tests for the sharding handshake surface: FromSeconds rounding (the
// negative-input bugfix), tail-ordered events, and NextEventTime.

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestFromSecondsRounding pins round-half-away-from-zero for positive,
// negative and sub-tick values. The old +0.5-then-truncate conversion
// mis-rounded every negative input toward zero (-1.4µs → -0).
func TestFromSecondsRounding(t *testing.T) {
	cases := []struct {
		s    float64
		want Time
	}{
		{0, 0},
		{1.5, 1500 * Millisecond},
		{-1.5, -1500 * Millisecond},
		// Sub-tick magnitudes round to the nearest microsecond.
		{0.4e-6, 0},
		{0.5e-6, 1},
		{0.6e-6, 1},
		{-0.4e-6, 0},
		{-0.5e-6, -1},
		{-0.6e-6, -1},
		// The ISSUE's example: -1.4 ticks must round to -1, not -0.
		{-1.4e-6, -1},
		{1.4e-6, 1},
		{-1.6e-6, -2},
		// Half-tick boundaries away from zero in both signs.
		{2.5e-6, 3},
		{-2.5e-6, -3},
		// Plain seconds.
		{3, 3 * Second},
		{-3, -3 * Second},
		{0.010001, 10001},
		{-0.010001, -10001},
	}
	for _, c := range cases {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	// Negation symmetry over random magnitudes: rounding half away from
	// zero makes FromSeconds an odd function, which the old conversion
	// violated for any fractional negative input.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		s := rng.Float64() * 100
		if got, want := FromSeconds(-s), -FromSeconds(s); got != want {
			t.Fatalf("FromSeconds(-%v) = %d, want %d", s, got, want)
		}
	}
}

// TestTailOrdersAfterLaterSchedules is the property ordinary FIFO cannot
// give: an event scheduled *after* the tail, for the same instant, still
// fires before it.
func TestTailOrdersAfterLaterSchedules(t *testing.T) {
	k := New()
	var order []string
	add := func(tag string) Call { return func(Time, any) { order = append(order, tag) } }
	k.Schedule(Millisecond, func(Time) { order = append(order, "early") })
	if _, err := k.ScheduleTailCallAt(Millisecond, 0, add("tail1"), nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(Millisecond, func(Time) { order = append(order, "late") })
	if _, err := k.ScheduleTailCallAt(Millisecond, 0, add("tail2"), nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(2*Millisecond, func(Time) { order = append(order, "next-instant") })
	drain(k)
	want := []string{"early", "late", "tail1", "tail2", "next-instant"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestTailKeyOrder schedules four same-instant tail events, keys 0 to 3, in
// every order, each behind a normal event scheduled after them: the normal
// event fires first, then the tails in key order, however they were
// scheduled. It also holds two tails of one key to schedule order.
func TestTailKeyOrder(t *testing.T) {
	var permute func(keys []int, n int, visit func([]int))
	permute = func(keys []int, n int, visit func([]int)) {
		if n == 1 {
			visit(keys)
			return
		}
		for i := 0; i < n; i++ {
			permute(keys, n-1, visit)
			if n%2 == 0 {
				keys[i], keys[n-1] = keys[n-1], keys[i]
			} else {
				keys[0], keys[n-1] = keys[n-1], keys[0]
			}
		}
	}
	perms := 0
	permute([]int{0, 1, 2, 3}, 4, func(keys []int) {
		perms++
		k := New()
		var order []int
		fire := func(_ Time, arg any) { order = append(order, arg.(int)) }
		for _, key := range keys {
			if _, err := k.ScheduleTailCallAt(Millisecond, key, fire, key); err != nil {
				t.Fatal(err)
			}
		}
		k.ScheduleCall(Millisecond, fire, -1)
		drain(k)
		if want := []int{-1, 0, 1, 2, 3}; !slices.Equal(order, want) {
			t.Fatalf("scheduled keys %v: fired %v, want %v", keys, order, want)
		}
	})
	if perms != 24 {
		t.Fatalf("visited %d orders, want 24", perms)
	}

	k := New()
	var order []string
	add := func(tag string) Call { return func(Time, any) { order = append(order, tag) } }
	for _, e := range []struct {
		key int
		tag string
	}{{7, "7a"}, {3, "3a"}, {7, "7b"}, {3, "3b"}, {MaxTailKey, "max"}, {0, "0"}} {
		if _, err := k.ScheduleTailCallAt(Millisecond, e.key, add(e.tag), nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(k)
	if want := []string{"0", "3a", "3b", "7a", "7b", "max"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

// TestTailKeyRange holds keys to [0, MaxTailKey]: one outside panics by
// name, before anything is scheduled.
func TestTailKeyRange(t *testing.T) {
	for _, key := range []int{-1, MaxTailKey + 1, math.MinInt, math.MaxInt} {
		k := New()
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "tail key") {
					t.Errorf("key %d: recovered %v, want a tail key panic", key, r)
				}
			}()
			k.ScheduleTailCallAt(Millisecond, key, func(Time, any) {}, nil)
		}()
		if st := k.Stats(); st.Scheduled != 0 || st.Rejected != 0 {
			t.Errorf("key %d: %+v after the refusal, want nothing scheduled", key, st)
		}
	}
}

// TestTailSchedulingMidInstant arms a tail from within the firing instant
// itself: normal events already queued at the instant still beat it.
func TestTailSchedulingMidInstant(t *testing.T) {
	k := New()
	var order []string
	tail := func(Time, any) { order = append(order, "tail") }
	k.Schedule(Millisecond, func(now Time) {
		order = append(order, "a")
		if _, err := k.ScheduleTailCallAt(now, 0, tail, nil); err != nil {
			t.Fatal(err)
		}
	})
	k.Schedule(Millisecond, func(Time) { order = append(order, "b") })
	k.Schedule(Millisecond, func(Time) { order = append(order, "c") })
	drain(k)
	want := []string{"a", "b", "c", "tail"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestTailCancelAndPending checks tail events behave like normal events for
// Handle bookkeeping.
func TestTailCancelAndPending(t *testing.T) {
	k := New()
	fired := false
	h, err := k.ScheduleTailCallAt(Millisecond, 0, func(Time, any) { fired = true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Pending() {
		t.Fatal("tail event should be pending")
	}
	if !h.Cancel() {
		t.Fatal("Cancel should report true")
	}
	if h.Pending() || h.Cancel() {
		t.Fatal("cancelled tail event should be inert")
	}
	drain(k)
	if fired {
		t.Fatal("cancelled tail event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", k.Pending())
	}
	if _, err := k.ScheduleTailCallAt(k.Now()-1, 0, func(Time, any) {}, nil); err == nil {
		t.Fatal("past tail schedule should error")
	}
}

// TestTailOrderAcrossContainers forces same-instant tails and normal events
// through both the calendar and the overflow ladder: a far-future instant
// populated before it is in the window (ladder) and topped up after a run
// has re-anchored the calendar onto it.
func TestTailOrderAcrossContainers(t *testing.T) {
	k := New()
	var order []int
	const at = 90 * Second // far beyond the initial window: ladder territory
	mustAt := func(id int, tail bool) {
		var err error
		if tail {
			_, err = k.ScheduleTailCallAt(at, 0, func(Time, any) { order = append(order, id) }, nil)
		} else {
			_, err = k.ScheduleAt(at, func(Time) { order = append(order, id) })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAt(100, true)
	mustAt(0, false)
	// Drain everything before at: the calendar re-anchors and the ladder
	// entries migrate into buckets.
	k.RunUntil(at - Second)
	mustAt(1, false)
	mustAt(101, true)
	drain(k)
	want := []int{0, 1, 100, 101}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNextEventTime(t *testing.T) {
	k := New()
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	h := k.Schedule(3*Millisecond, func(Time) {})
	k.Schedule(5*Millisecond, func(Time) {})
	if at, ok := k.NextEventTime(); !ok || at != 3*Millisecond {
		t.Fatalf("NextEventTime() = %v, %v; want 3ms, true", at, ok)
	}
	// Cancelling the minimum must surface the next one, not the corpse.
	h.Cancel()
	if at, ok := k.NextEventTime(); !ok || at != 5*Millisecond {
		t.Fatalf("NextEventTime() after cancel = %v, %v; want 5ms, true", at, ok)
	}
	// A newly scheduled earlier event becomes the minimum.
	k.Schedule(Millisecond, func(Time) {})
	if at, ok := k.NextEventTime(); !ok || at != Millisecond {
		t.Fatalf("NextEventTime() after earlier schedule = %v, %v; want 1ms, true", at, ok)
	}
	drain(k)
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("drained kernel reported a next event")
	}
}

// TestNextEventTimeWindowHandshake exercises the shard runner's idle-time
// protocol: RunUntil to a bounded window, read the next event time, inject
// at-or-after it, repeat. The peek must never desynchronize the following
// RunUntil.
func TestNextEventTimeWindowHandshake(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := New()
	var fired []Time
	var n int
	cb := func(now Time) { fired = append(fired, now); n++ }
	for i := 0; i < 50; i++ {
		if _, err := k.ScheduleAt(Time(rng.Intn(2000))*Millisecond, cb); err != nil {
			t.Fatal(err)
		}
	}
	scheduled := 50
	for {
		at, ok := k.NextEventTime()
		if !ok {
			break
		}
		window := at + Time(rng.Intn(50))*Millisecond
		// Inject between the peek and the run, like a barrier delivery.
		for i, m := 0, rng.Intn(3); i < m; i++ {
			inj := at + Time(rng.Intn(100))*Millisecond
			if _, err := k.ScheduleAt(inj, cb); err != nil {
				t.Fatal(err)
			}
			scheduled++
		}
		if at, ok = k.NextEventTime(); !ok || at < k.Now() {
			t.Fatalf("NextEventTime() = %v, %v after injection at now=%v", at, ok, k.Now())
		}
		k.RunUntil(window)
		if k.Now() < window {
			t.Fatalf("clock %v short of window %v", k.Now(), window)
		}
	}
	if n != scheduled {
		t.Fatalf("fired %d events, scheduled %d", n, scheduled)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times not monotone: %v then %v", fired[i-1], fired[i])
		}
	}
}

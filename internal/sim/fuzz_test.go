package sim

// FuzzKernelOps: the kernel against the container/heap reference, one
// operation at a time. The hand-written differentials in this package each
// fix one interleaving of schedule / cancel / run / retune; the fuzzer
// searches the interleavings nobody thought of, which is where the PR 2
// clock bug and the PR 6 lost-event bug lived.
//
// An input is a byte string decoded by fuzzRun. Each operation is one op
// byte — low seven bits modulo fzNumOps select the operation, the top bit
// asks for a NextEventTime comparison after it — followed by the
// operation's operand bytes (missing bytes read as zero):
//
//	fzRel, fzAbs, fzTail   c x     Schedule / ScheduleAt / ScheduleTailCallAt, delay fuzzDelay(c, x)
//	fzPast                 x       both absolute forms at now-1-x: ErrPastEvent, nothing scheduled
//	fzCancel               hi lo y Cancel event (hi<<8|lo) mod scheduled; odd y cancels it twice
//	fzEvery                c x     Every(fuzzDelay(c, x)), a zero period bumped to one tick; at most four tickers
//	fzStep                         Step
//	fzRunUntil             c x     RunUntil(now + fuzzDelay(c, x))
//	fzParent               c x n   Schedule an event that schedules 1+n%3 children at its own instant, every second one a tail
//
// A tail's key is the op byte's quotient: (op byte with fzPeek cleared) /
// fzNumOps, 0 to 12, so equal keys are common and key 0 is the default. A
// parent's tail children take the parent's key.
//	fzBurst                n b s   130+n%171 events at now + b·64µs + (i mod (1+16·s))µs: over-fills the calendar, forcing a retune
//
// After every operation the harness compares the fired order, Now, Pending,
// Fired, the Stats identity and every handle's Pending with the reference.
// NextEventTime is compared only when the op byte asks: a peek advances the
// scan, sorts the front bucket and prunes cancelled heads, so peeking after
// every operation would put the states between two peeks out of reach.
// When the input ends, both sides run to the end of time.
//
// Tickers never stop, so every input runs under a fire budget. The
// reference runs each RunUntil first; when the budget runs out inside it, the
// kernel fires the same number of events with Step instead, and the input
// ends there.
//
// The committed corpus (testdata/fuzz/FuzzKernelOps, run by plain go test)
// replays the hand-written regressions as op sequences — retune-between-runs
// (TestRetuneBetweenRuns), bursts-between-runs
// (TestDifferentialBurstsBetweenRuns), below-window-after-gap
// (TestBelowWindowAfterGap), stop-mid-instant (TestStopMidInstant and its
// retune differential: two Steps into a four-event instant, then a burst) —
// plus one seed per remaining family: near-maxtime,
// tickers-across-retune, children-and-tails, cancel-reschedule. -v prints
// the decoded operations.

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"
)

const (
	fzRel = iota
	fzAbs
	fzTail
	fzPast
	fzCancel
	fzEvery
	fzStep
	fzRunUntil
	fzParent
	fzBurst
	fzNumOps

	fzPeek = 0x80 // op-byte flag: compare NextEventTime after the operation

	// Per-input bounds, so a 100 µs ticker under a RunUntil of days ends:
	// the event that exhausts the fire budget ends the input.
	fzMaxOps    = 400
	fzMaxEvents = 4096
	fzMaxFires  = 20000
)

// fuzzDelay maps an operand pair to a delay, one class per region of the
// queue: the current instant, the next tick, inside the initial 256 µs
// bucket, inside the initial 16 ms window, seconds away (the first ladder
// entries, and the spans that retune the width), hours away (ladder under
// any width), and the last 256 µs before maxTime, where the relative forms
// saturate.
func fuzzDelay(c, x byte) Time {
	switch c % 7 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return Time(x)
	case 3:
		return Time(x) * 64 * Microsecond
	case 4:
		return Time(x) * 100 * Millisecond
	case 5:
		return Time(1+int(x)) * 3600 * Second
	default:
		return maxTime - Time(x)
	}
}

// satAdd is the harness's own saturating add, so the reference's timestamps
// do not come from the code under test.
func satAdd(now, delay Time) Time {
	if delay > maxTime-now {
		return maxTime
	}
	return now + delay
}

// fuzzOp names the operation under way for failure messages; it is only
// formatted when one is printed.
type fuzzOp struct {
	n    int
	what string
	args [3]int64
}

func (o fuzzOp) String() string { return fmt.Sprintf("op %d: %s %v", o.n, o.what, o.args) }

// fuzzSpec is what an event does when it fires, beyond being recorded:
// kind fzParent, anything else is a plain event.
type fuzzSpec struct {
	kind int
	n    int // fzParent: children to schedule
	key  int // fzParent: its tail children's key
}

type fuzzHarness struct {
	t *testing.T
	k *Kernel

	// Kernel side, indexed by event id (ids count schedules, in order).
	specs   []fuzzSpec
	handles []Handle
	fired   []int

	// Reference side. It assigns its own ids from its own fire order, so a
	// divergence shows as a fired-order mismatch rather than hiding in
	// shared state.
	ref     refKernel
	rspecs  []fuzzSpec
	items   []*refItem
	done    []bool
	rfired  []int
	budget  int    // reference fires left
	refused uint64 // schedules the reference refused as in the past

	// Tickers fire as id -1-i on both sides.
	periods []Time

	checked int // prefix of fired already compared
	callFn  Call
}

func newFuzzHarness(t *testing.T) *fuzzHarness {
	h := &fuzzHarness{t: t, k: New(), budget: fzMaxFires}
	h.callFn = func(now Time, arg any) { h.kFire(arg.(int), now) }
	return h
}

// schedule places one event on both sides: Schedule for fzRel, ScheduleAt
// for fzAbs, ScheduleTailCallAt for fzTail.
// key is a tail's key, ignored by the other forms.
func (h *fuzzHarness) schedule(form, key int, delay Time, sp fuzzSpec) {
	h.kSchedule(form, key, h.k.Now(), delay, sp)
	h.rSchedule(form, key, delay, sp)
}

func (h *fuzzHarness) kSchedule(form, key int, now, delay Time, sp fuzzSpec) {
	id := len(h.specs)
	h.specs = append(h.specs, sp)
	var hd Handle
	var err error
	switch form {
	case fzRel:
		hd = h.k.Schedule(delay, func(now Time) { h.kFire(id, now) })
	case fzAbs:
		hd, err = h.k.ScheduleAt(satAdd(now, delay), func(now Time) { h.kFire(id, now) })
	case fzTail:
		hd, err = h.k.ScheduleTailCallAt(satAdd(now, delay), key, h.callFn, id)
	}
	if err != nil {
		h.t.Fatalf("schedule form %d, delay %d at now=%d: %v", form, delay, now, err)
	}
	if !hd.Pending() {
		h.t.Fatalf("event %d not pending right after scheduling", id)
	}
	h.handles = append(h.handles, hd)
}

func (h *fuzzHarness) rPush(at Time, id int, tail bool, key int) *refItem {
	it := &refItem{at: at, seq: h.ref.seq, id: id, tail: tail, key: key}
	h.ref.seq++
	heap.Push(&h.ref.queue, it)
	return it
}

func (h *fuzzHarness) rSchedule(form, key int, delay Time, sp fuzzSpec) {
	id := len(h.rspecs)
	h.rspecs = append(h.rspecs, sp)
	h.items = append(h.items, h.rPush(satAdd(h.ref.now, delay), id, form == fzTail, key))
	h.done = append(h.done, false)
}

// childForm makes every second child of an fzParent event a tail.
func childForm(j int) int {
	if j%2 == 1 {
		return fzTail
	}
	return fzRel
}

// kFire is every kernel-side event's callback.
func (h *fuzzHarness) kFire(id int, now Time) {
	if now != h.k.Now() {
		h.t.Fatalf("event %d called with now=%d, Now()=%d", id, now, h.k.Now())
	}
	h.fired = append(h.fired, id)
	if len(h.fired) > fzMaxFires {
		h.t.Fatalf("kernel fired past the budget of %d", fzMaxFires)
	}
	if id >= 0 && h.specs[id].kind == fzParent {
		for j := 0; j < h.specs[id].n; j++ {
			h.kSchedule(childForm(j), h.specs[id].key, now, 0, fuzzSpec{})
		}
	}
}

// rFire fires the reference's earliest live event, mirroring kFire and,
// for a ticker, the re-arm that follows its callback.
func (h *fuzzHarness) rFire() {
	it := heap.Pop(&h.ref.queue).(*refItem)
	h.ref.now = it.at
	h.rfired = append(h.rfired, it.id)
	if it.id >= 0 {
		h.done[it.id] = true
		if sp := h.rspecs[it.id]; sp.kind == fzParent {
			for j := 0; j < sp.n; j++ {
				h.rSchedule(childForm(j), sp.key, 0, fuzzSpec{})
			}
		}
	} else {
		h.rPush(satAdd(h.ref.now, h.periods[-1-it.id]), it.id, false, 0)
	}
	h.budget--
}

// runUntil runs both sides to deadline. The reference goes first: if the
// budget runs out before the deadline, the kernel steps through the same
// number of events and its clock stays at the last of them.
func (h *fuzzHarness) runUntil(deadline Time) {
	n := 0
	for ; h.budget > 0; n++ {
		if top := h.ref.top(); top == nil || top.at > deadline {
			break
		}
		h.rFire()
	}
	if h.budget == 0 {
		for i := 0; i < n; i++ {
			h.k.Step()
		}
		return
	}
	h.k.RunUntil(deadline)
	if h.ref.now < deadline {
		h.ref.now = deadline
	}
}

// check compares everything observable with the reference.
func (h *fuzzHarness) check(op fuzzOp, peek bool) {
	t, k := h.t, h.k
	t.Helper()
	for i := h.checked; i < len(h.fired) && i < len(h.rfired); i++ {
		if h.fired[i] != h.rfired[i] {
			t.Fatalf("%v: fire %d is event %d, reference %d", op, i, h.fired[i], h.rfired[i])
		}
	}
	if len(h.fired) != len(h.rfired) {
		t.Fatalf("%v: fired %d events, reference %d", op, len(h.fired), len(h.rfired))
	}
	h.checked = len(h.fired)
	if k.Now() != h.ref.now {
		t.Fatalf("%v: Now() = %d, reference %d", op, k.Now(), h.ref.now)
	}
	live := 0
	for _, it := range h.ref.queue {
		if !it.stopped {
			live++
		}
	}
	if k.Pending() != live {
		t.Fatalf("%v: Pending() = %d, reference %d", op, k.Pending(), live)
	}
	if k.Fired() != uint64(len(h.rfired)) {
		t.Fatalf("%v: Fired() = %d, reference %d", op, k.Fired(), len(h.rfired))
	}
	if st := k.Stats(); st.Scheduled != h.ref.seq || int(st.Scheduled-st.Fired-st.Cancelled) != live || st.Rejected != h.refused {
		t.Fatalf("%v: %+v; reference scheduled %d, %d live, %d refused", op, st, h.ref.seq, live, h.refused)
	}
	if len(h.handles) != len(h.items) {
		t.Fatalf("%v: %d events scheduled, reference %d", op, len(h.handles), len(h.items))
	}
	for id, hd := range h.handles {
		if want := !h.items[id].stopped && !h.done[id]; hd.Pending() != want {
			t.Fatalf("%v: event %d Pending() = %v, reference %v", op, id, !want, want)
		}
	}
	if peek {
		at, ok := k.NextEventTime()
		if top := h.ref.top(); ok != (top != nil) || ok && at != top.at {
			t.Fatalf("%v: NextEventTime() = %d, %v; reference top %+v", op, at, ok, top)
		}
	}
}

// fuzzRun decodes data into operations and runs them on both sides.
func fuzzRun(t *testing.T, data []byte) {
	h := newFuzzHarness(t)
	k := h.k
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for n := 0; len(data) > 0 && n < fzMaxOps && h.budget > 0; n++ {
		b := next()
		op := fuzzOp{n: n}
		room := len(h.specs) < fzMaxEvents
		switch code := int(b&^fzPeek) % fzNumOps; code {
		case fzRel, fzAbs, fzTail, fzParent:
			d := fuzzDelay(next(), next())
			key := int(b&^fzPeek) / fzNumOps
			sp, form := fuzzSpec{}, code
			if code == fzParent {
				sp, form = fuzzSpec{kind: fzParent, n: 1 + int(next())%3, key: key}, fzRel
			}
			op.what, op.args = "schedule (form, delay, key)", [3]int64{int64(form), int64(d), int64(key)}
			if room {
				h.schedule(form, key, d, sp)
			}
		case fzPast:
			at := k.Now() - 1 - Time(next())
			op.what, op.args[0] = "schedule in the past (at)", int64(at)
			_, err1 := k.ScheduleAt(at, func(Time) { t.Fatal("past event fired") })
			_, err2 := k.ScheduleTailCallAt(at, 0, h.callFn, -1)
			for _, err := range []error{err1, err2} {
				if !errors.Is(err, ErrPastEvent) {
					t.Fatalf("%v: error %v, want ErrPastEvent", op, err)
				}
				h.refused++
			}
		case fzCancel:
			i, twice := int(next())<<8|int(next()), next()%2 == 1
			op.what, op.args[0] = "cancel (event mod scheduled)", int64(i)
			if len(h.handles) == 0 {
				break
			}
			i %= len(h.handles)
			want := !h.items[i].stopped && !h.done[i]
			h.items[i].stopped = true
			if got := h.handles[i].Cancel(); got != want {
				t.Fatalf("%v: Cancel() = %v, reference %v", op, got, want)
			}
			if twice && h.handles[i].Cancel() {
				t.Fatalf("%v: second Cancel() reported true", op)
			}
		case fzEvery:
			period := fuzzDelay(next(), next())
			if period < 1 {
				period = 1
			}
			op.what, op.args[0] = "Every (period)", int64(period)
			if i := len(h.periods); i < 4 {
				k.Every(period, func(now Time) { h.kFire(-1-i, now) })
				h.periods = append(h.periods, period)
				h.rPush(satAdd(h.ref.now, period), -1-i, false, 0)
			}
		case fzStep:
			op.what = "Step"
			top := h.ref.top()
			if top != nil {
				h.rFire()
			}
			if got := k.Step(); got != (top != nil) {
				t.Fatalf("%v: Step() = %v, reference %v", op, got, top != nil)
			}
		case fzRunUntil:
			deadline := satAdd(k.Now(), fuzzDelay(next(), next()))
			op.what, op.args[0] = "RunUntil (deadline)", int64(deadline)
			h.runUntil(deadline)
		case fzBurst:
			count, base, spread := 130+int(next())%171, Time(next())*64*Microsecond, 1+16*int(next())
			op.what, op.args = "burst (count, base, spread)", [3]int64{int64(count), int64(base), int64(spread)}
			for i := 0; i < count && room; i++ {
				h.schedule(fzAbs, 0, base+Time(i%spread), fuzzSpec{})
			}
		}
		if testing.Verbose() {
			t.Log(op)
		}
		h.check(op, b&fzPeek != 0)
	}
	if h.budget > 0 {
		h.runUntil(maxTime)
		h.check(fuzzOp{what: "run to the end of time"}, true)
	}
}

func FuzzKernelOps(f *testing.F) {
	f.Fuzz(fuzzRun)
}

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded event loop over a calendar queue: an
// array of time buckets whose width tracks the observed inter-event
// spacing, with a binary-heap overflow ladder for events beyond the
// calendar window (see calendar.go). Under the simulator's steady
// tick+transmit workload — event delays tightly clustered around the
// transmission and propagation times — schedule and fire are O(1)
// amortized, where the previous binary-heap kernel paid O(log n) sifts and
// a pointer chase per event.
//
// Time is measured in integer microseconds (Time) so that runs are exactly
// reproducible across platforms. Events scheduled for the same instant
// fire in the order they were scheduled (FIFO tie-break by sequence
// number) — byte-for-byte the order the binary-heap kernel produced, which
// the differential tests in this package pin against a container/heap
// reference. Tail events (ScheduleTailCallAt) are the one exception: they
// fire after every normal event of their instant, by (key, schedule).
//
// Event state lives in a struct-of-arrays slot store: the fields of a
// scheduled event are split across parallel slices indexed by a compact
// int32 slot id, so the queue walks touch dense pointer-free arrays
// instead of chasing per-event heap objects, and the collector never scans
// or write-barriers the queue links. The store is allocation-free in
// steady state: slots are recycled through an intrusive free-list once
// fired or cancelled-and-drained, and the ScheduleCall variants take a
// reusable callback plus an argument instead of a per-event closure.
// Handles carry a generation tag so a stale Handle can never cancel the
// event that later reuses its recycled slot. The store only grows: it
// holds as many slots as the largest population the run ever had pending
// (Stats.Slots), 53 bytes each.
//
// The kernel knows nothing about networks; internal/network builds the
// ARPANET model on top of it.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a simulation timestamp in microseconds since the start of the run.
type Time int64

// Common durations expressed in simulation time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// maxTime is the latest representable instant; Step drains with it as the
// deadline. It doubles as "never": time arithmetic saturates here instead
// of wrapping, and RunUntil with any earlier deadline leaves an event
// parked at maxTime unfired.
const maxTime = Time(math.MaxInt64)

// MaxSeconds bounds the seconds a Time can hold: FromSeconds saturates
// anything from here on to the last instant, so a horizon at or past it
// never ends. Callers taking a horizon in seconds refuse it by this bound.
const MaxSeconds = float64(maxTime) / float64(Second)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time, rounding half away
// from zero to the nearest microsecond. (An earlier version added 0.5 and
// truncated, which rounds toward zero for negative inputs: -1.4µs mapped to
// -0 instead of -1. For non-negative inputs the two agree, so recorded
// traces are unaffected.) Anything beyond the representable range,
// infinities included, saturates at ±maxTime — the conversion would
// otherwise yield MinInt64 and turn "never" into "immediately" — and NaN,
// which only a caller's arithmetic bug can produce, panics by name.
func FromSeconds(s float64) Time {
	us := math.Round(s * float64(Second))
	switch {
	case us >= float64(maxTime):
		return maxTime
	case us <= -float64(maxTime):
		return -maxTime
	case us != us:
		panic("sim: FromSeconds(NaN)")
	}
	return Time(us)
}

// Add returns t+d, saturating at ±maxTime instead of wrapping around.
func (t Time) Add(d Time) Time {
	switch {
	case d > 0 && t > maxTime-d:
		return maxTime
	case d < 0 && t < -maxTime-d:
		return -maxTime
	}
	return t + d
}

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a callback scheduled to run at a particular simulation time.
type Event func(now Time)

// Call is the closure-free callback form: a reusable function invoked with
// the argument it was scheduled with. Hot paths that would otherwise build
// a fresh closure per event bind one Call once and pass varying arguments.
type Call func(now Time, arg any)

// tunePeriod is how many fired events pass between checks of the calendar's
// width against the observed event rate (tuneCheck).
const tunePeriod = 4096

// Slot location/state byte: the low bits say which container holds the
// slot, the top bit marks a cancelled (stopped) event awaiting lazy
// removal from that container.
const (
	locFree  uint8 = iota // on the free-list
	locCal                // linked into a calendar bucket
	locOver               // in the overflow ladder heap
	flagStop uint8 = 0x80
)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and inert.
type Handle struct {
	k    *Kernel
	slot int32
	gen  uint64
}

// live reports whether the handle still refers to the scheduled event it
// was created for (the slot may since have been recycled for another).
func (h Handle) live() bool {
	return h.k != nil && h.k.gen[h.slot] == h.gen
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending. The callback and its argument are released immediately —
// a cancelled slot may sit in its bucket until drained lazily, and must
// not pin packets or other payloads alive meanwhile.
func (h Handle) Cancel() bool {
	if !h.live() {
		return false
	}
	k, s := h.k, h.slot
	if k.loc[s]&flagStop != 0 {
		return false
	}
	k.loc[s] |= flagStop
	k.cfn[s], k.arg[s] = nil, nil
	k.pending--
	k.cancelled++
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.live() && h.k.loc[h.slot]&flagStop == 0
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create one with New.
type Kernel struct {
	now Time
	seq uint64

	// Slot store: one scheduled event per slot, fields split across
	// parallel arrays (struct-of-arrays). next doubles as the calendar
	// bucket chain link and the free-list link; at/eseq/loc/next are
	// pointer-free, so queue maintenance never touches the write barrier.
	at   []Time
	eseq []uint64
	cfn  []Call
	arg  []any
	gen  []uint64
	loc  []uint8
	next []int32

	freeHead int32 // free-list head, -1 when empty

	// Calendar queue + overflow ladder (calendar.go).
	bucket    []int32 // chain heads, len is a power of two, -1 when empty
	width     Time    // bucket time width, always a power of two
	shift     uint    // log2(width): time→bucket is a shift, not a divide
	scanAbs   int64   // absolute bucket number of the scan position
	sortedAbs int64   // scan position whose bucket chain is known-sorted
	calN      int     // slots linked into buckets (including cancelled)
	over      []int32 // overflow ladder: binary heap ordered by (at, eseq)

	pending   int // scheduled events still able to fire
	fired     uint64
	cancelled uint64
	rejected  uint64 // schedules refused with ErrPastEvent
	retunes   uint64
	overPops  uint64 // ladder pops, cumulative
	sorted    uint64 // events through sortFront's general path, cumulative
	tuneTick  int    // fires left until the next tuneCheck
	// tuneNow and tuneFired sample the fire rate over the fires since the
	// last tuneCheck or retune, whichever came later: at most tunePeriod
	// fires, so a flood after a quiet stretch is measured at its own rate.
	tuneNow   Time   // clock at the last tuneCheck or retune
	tuneFired uint64 // fire count at the last tuneCheck or retune
	tunePops  uint64 // overPops at the last tuneCheck — churn detector
	running   bool

	scratch   []int32 // retune / front-sort slot scratch (reused)
	atScratch []Time  // retune timestamp scratch (reused)
}

// New returns an empty kernel with the clock at time zero.
func New() *Kernel {
	k := &Kernel{
		bucket:   make([]int32, minBuckets),
		freeHead: -1,
		tuneTick: tunePeriod,
		// Pre-sized so a small kernel's first retune stays allocation-free.
		scratch:   make([]int32, 0, minBuckets),
		atScratch: make([]Time, 0, minBuckets),
	}
	k.setWidth(initialWidth)
	for i := range k.bucket {
		k.bucket[i] = -1
	}
	return k
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far. The count is
// incremented as each event fires, so an event observing Fired from its
// own callback sees itself included.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events currently scheduled and still able
// to fire. Cancelled events awaiting lazy removal are not counted.
func (k *Kernel) Pending() int { return k.pending }

// Stats is a snapshot of the kernel's own counters. Everything in it is
// simulation state — no wall-clock quantity — so it is as reproducible as
// the run itself.
type Stats struct {
	Scheduled  uint64 // events ever scheduled; Scheduled-Fired-Cancelled == Pending()
	Fired      uint64
	Cancelled  uint64
	Rejected   uint64 // schedules refused with ErrPastEvent: events their callers wanted and never got
	Retunes    uint64 // calendar rebuilds, whatever the trigger
	LadderPops uint64 // events (live or cancelled) that left through the overflow ladder
	Sorted     uint64 // live events the front bucket sorted as a chain of three or more (or holding a cancelled slot)
	Slots      int    // slot-store size: the peak number of events ever queued at once
	Buckets    int    // current calendar size
	Width      Time   // current bucket width
}

// Stats returns the current counters. It reads fields the kernel keeps
// anyway; nothing is recorded on the schedule or fire path for it.
func (k *Kernel) Stats() Stats {
	return Stats{
		Scheduled: k.seq, Fired: k.fired, Cancelled: k.cancelled, Rejected: k.rejected,
		Retunes: k.retunes, LadderPops: k.overPops, Sorted: k.sorted,
		Slots: len(k.at), Buckets: len(k.bucket), Width: k.width,
	}
}

// alloc takes a slot off the free-list, or extends the store when every
// slot is in use.
// Allocates: slot-store growth to the peak pending population is amortized; steady state reuses freed slots
func (k *Kernel) alloc() int32 {
	s := k.freeHead
	if s >= 0 {
		k.freeHead = k.next[s]
		return s
	}
	k.at = append(k.at, 0)
	k.eseq = append(k.eseq, 0)
	k.cfn = append(k.cfn, nil)
	k.arg = append(k.arg, nil)
	k.gen = append(k.gen, 0)
	k.loc = append(k.loc, locFree)
	k.next = append(k.next, -1)
	return int32(len(k.at) - 1)
}

// recycle retires a slot to the free-list, invalidating every Handle to
// its current life. The payload fields are left in place — two barriered
// pointer stores per fired event would dominate the fire path — which is
// safe because Cancel nils them eagerly (so a cancelled slot pins nothing
// while it waits to be drained) and a fired slot's stale payload is
// overwritten on reuse. The free-list is LIFO, so in steady state that is
// the next schedule; slots a burst left deep in the list keep pointing at
// their last payload — in this tree a pooled packet or a node, link or
// ticker that lives as long as the run — until the population grows back.
func (k *Kernel) recycle(s int32) {
	k.gen[s]++
	k.loc[s] = locFree
	k.next[s] = k.freeHead
	k.freeHead = s
}

// ErrPastEvent is returned by ScheduleAt when the requested time is before
// the current simulation time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// reject refuses a schedule at a time already past — and counts it: the error
// is the caller's to handle, but one dropped anywhere is an event that never
// fires, which nothing else can observe. Both engines' audits demand zero.
func (k *Kernel) reject(at Time) error {
	k.rejected++
	// Allocates: error construction on the rejected-schedule path, never in steady state
	return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, k.now)
}

// tailSeq is the high bit of an event sequence number. A tail event carries
// it so that, at its timestamp, it sorts after every normally scheduled
// event — including ones scheduled after it. Normal sequence numbers are
// assigned from a counter starting at zero and can never reach the bit.
// Under the bit a tail event carries its key, and under the key its
// sequence number, so tail events at one instant sort by (key, sequence).
const tailSeq = uint64(1) << 63

// tailSeqBits is the width of the sequence number under a tail key: a kernel
// takes 2^39 (about 5.5e11) schedules before a tail event's sequence would
// carry into its key, and ScheduleTailCallAt panics rather than let it.
const tailSeqBits = 39

// MaxTailKey is the largest key ScheduleTailCallAt takes: keys span the 24
// bits between the tail bit and the sequence number.
const MaxTailKey = 1<<(63-tailSeqBits) - 1

// scheduleSlot allocates and enqueues one event whose sequence number, the
// FIFO tie-break for same-instant events, is eseq | the kernel's schedule
// count. Normal events pass eseq 0; a tail event passes the tail bit and its
// key.
func (k *Kernel) scheduleSlot(at Time, cfn Call, arg any, eseq uint64) Handle {
	s := k.alloc()
	k.at[s] = at
	k.eseq[s] = eseq | k.seq
	k.seq++
	k.cfn[s], k.arg[s] = cfn, arg
	k.pending++
	k.enqueue(s)
	return Handle{k: k, slot: s, gen: k.gen[s]}
}

// callEvent is the one adapter behind Schedule and ScheduleAt: the Event
// rides as the argument (a func value is pointer-shaped, so boxing it
// allocates nothing) and the slot store keeps a single callback form.
func callEvent(now Time, arg any) { arg.(Event)(now) }

// ScheduleAt schedules fn to run at absolute time at. It returns a Handle
// that can cancel the event, and an error if at precedes the current time.
func (k *Kernel) ScheduleAt(at Time, fn Event) (Handle, error) {
	if at < k.now {
		return Handle{}, k.reject(at)
	}
	return k.scheduleSlot(at, callEvent, fn, 0), nil
}

// Schedule schedules fn to run after delay (which may be zero). A negative
// delay is treated as zero; a delay that would carry the clock past
// maxTime schedules at maxTime.
func (k *Kernel) Schedule(delay Time, fn Event) Handle {
	if delay < 0 {
		delay = 0
	}
	return k.scheduleSlot(k.now.Add(delay), callEvent, fn, 0)
}

// ScheduleCall schedules fn(now, arg) after delay (which may be zero),
// clamped like Schedule's.
func (k *Kernel) ScheduleCall(delay Time, fn Call, arg any) Handle {
	if delay < 0 {
		delay = 0
	}
	return k.scheduleSlot(k.now.Add(delay), fn, arg, 0)
}

// ScheduleTailCallAt schedules fn(at, arg) at absolute time at, ordered
// after every normally scheduled event with the same timestamp — including
// ones scheduled later, from either side of the firing instant. Tail events
// at one instant fire in (key, schedule) order among themselves. key must
// lie in [0, MaxTailKey]; anything else panics.
//
// Both packet engines schedule each packet's arrival as one tail event keyed
// by the link it crossed. No two arrivals share a (time, link): a link's
// transmissions are at least one tick long each and its latency is fixed.
// So the arrivals at an instant fire after everything else there, in link
// order, whichever order — and, on the sharded runner, whichever shard —
// scheduled them.
//
// A non-tail event scheduled at the current instant from within a tail
// callback still fires (it is the queue minimum), but such
// scheduling forfeits the after-everything guarantee for the remaining tail
// events of the instant; model code keeps every non-arrival delay >= 1 tick
// precisely so the case never arises.
func (k *Kernel) ScheduleTailCallAt(at Time, key int, fn Call, arg any) (Handle, error) {
	if key < 0 || key > MaxTailKey {
		panic(fmt.Sprintf("sim: tail key %d outside [0, %d]", key, MaxTailKey))
	}
	if at < k.now {
		return Handle{}, k.reject(at)
	}
	if k.seq>>tailSeqBits != 0 {
		panic(fmt.Sprintf("sim: after %d schedules a tail event's sequence number would carry into its key", k.seq))
	}
	return k.scheduleSlot(at, fn, arg, tailSeq|uint64(key)<<tailSeqBits), nil
}

// NextEventTime returns the timestamp of the earliest pending event, or ok
// false when none remain. The conservative-sync shard runner calls it
// between RunUntil windows — with every kernel idle — to agree on the next
// global window base; it is also safe from within a callback.
func (k *Kernel) NextEventTime() (Time, bool) {
	s, _, ok := k.peekNext()
	if !ok {
		return 0, false
	}
	return k.at[s], true
}

// Every schedules fn to run every period, starting after the first period,
// for the rest of the run.
func (k *Kernel) Every(period Time, fn Event) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &ticker{k: k, period: period, fn: fn}
	t.arm()
}

// ticker repeatedly fires an event at a fixed period.
type ticker struct {
	k      *Kernel
	period Time
	fn     Event
}

// tickerFire is the single shared callback behind every ticker: re-arming
// allocates no closure, only a recycled slot.
func tickerFire(now Time, arg any) {
	t := arg.(*ticker)
	t.fn(now)
	t.arm()
}

func (t *ticker) arm() { t.k.ScheduleCall(t.period, tickerFire, t) }

// fireNext executes the earliest pending event if its timestamp is <=
// deadline, and reports whether it did. It is the only place an event
// leaves the queue to run: Step and RunUntil are loops over it.
func (k *Kernel) fireNext(deadline Time) bool {
	s, fromOver, ok := k.peekNext()
	if !ok || k.at[s] > deadline {
		return false
	}
	k.take(s, fromOver)
	k.now = k.at[s]
	k.fired++
	k.pending--
	cfn, arg := k.cfn[s], k.arg[s]
	// Recycle before invoking: the callback may schedule new events into
	// this slot, and outstanding Handles are severed by the generation
	// bump.
	k.recycle(s)
	k.tuneTick--
	if k.tuneTick <= 0 {
		k.tuneCheck()
	}
	cfn(k.now, arg)
	return true
}

// Step executes the single next pending event. It reports false when the
// queue is empty.
func (k *Kernel) Step() bool { return k.fireNext(maxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled at exactly the deadline do run.
func (k *Kernel) RunUntil(deadline Time) {
	k.runGuard()
	defer func() { k.running = false }()
	for k.fireNext(deadline) {
	}
	if k.now < deadline {
		k.now = deadline
	}
}

func (k *Kernel) runGuard() {
	if k.running {
		panic("sim: RunUntil called re-entrantly from an event")
	}
	k.running = true
}

// tuneCheck runs every tunePeriod fired events and rebuilds the calendar
// when it no longer fits the load (see calendar.go for the rebuild).
func (k *Kernel) tuneCheck() {
	k.tuneTick = tunePeriod
	pops := k.overPops - k.tunePops
	k.tunePops = k.overPops
	if fires := k.fired - k.tuneFired; fires >= 512 {
		// Width drift: the bucket width the calendar was tuned for no
		// longer matches the event rate of the last tunePeriod fires
		// (events per unit of simulated time), so chains are bunching up or
		// the scan is sprinting over empties. The rate is the recent one,
		// not the average since the last retune: a flood wave after a quiet
		// stretch would otherwise be diluted by the quiet and run on
		// buckets an order of magnitude too wide. Ladder churn: more than
		// one recent fire in eight drained through the overflow heap, more
		// than a window sized to the population lets through (calendar.go),
		// so the window is mis-anchored or mis-sized. Either way, rebuild.
		// A ladder merely *holding* far-future events (idle tickers, outage
		// timers) pops rarely and triggers nothing.
		expect := (k.now - k.tuneNow) / Time(fires)
		if expect < 1 {
			expect = 1
		}
		if k.width > 8*expect || (expect <= maxWidth && expect > 8*k.width) ||
			pops > tunePeriod/8 {
			k.retune()
		}
	}
	k.tuneNow, k.tuneFired = k.now, k.fired
}

package sim

// Calendar queue with a sorted front bucket and an overflow ladder.
//
// The pending-event queue is an array of time buckets, each holding an
// intrusive chain of slots, plus a small binary heap ("overflow ladder")
// for events beyond the calendar's window. The design maintains a strict
// window invariant instead of the classic calendar queue's modular
// year-wrap: every slot linked into a bucket has an absolute bucket number
// ab = at/width inside [scanAbs, scanAbs+len(bucket)), so the bucket index
// ab & (len(bucket)-1) (bucket counts are powers of two) can never alias
// two different times and the scan never has to guess which "year" an
// entry belongs to. Anything outside the window — far-future tickers,
// outage timers — goes to the ladder, and migrates down into the buckets
// when the calendar drains to empty and re-anchors at the ladder's top.
//
// The bucket at the scan position — the front — keeps its chain sorted by
// (at, eseq); every other bucket is an unsorted LIFO chain. Dequeue is
// then a head peek and an O(1) unlink, and a burst of same-timestamp
// events is drained as one contiguous head run, already in FIFO order —
// no per-event scan, no re-sort. A bucket is sorted exactly once, when the
// scan reaches it, amortizing to O(1) per event for the steady workload's
// short chains. Chains are pushed LIFO, so one node's same-instant fan-out
// — a flooded update's copies, scheduled in eseq order — reaches the sort
// strictly descending; the sort reverses the chain first, and such a run
// costs one compare per event, not n²/2. An insert into the sorted front
// walks the chain from its head, so n same-instant events scheduled into a
// live front cost O(n²) compares; such inserts are under 0.03% of
// schedules on every benchmark workload, and their chains a handful of
// events.
//
// Sizing: the bucket width targets about one event per bucket at the scan
// front, estimated from the observed fire rate — simulated time advanced
// per fired event over the last tunePeriod fires, not since the last
// retune, so a flood wave after a quiet stretch is sized by its own rate —
// rather than from gaps in the pending population (see tuneWidth for why
// the population statistic fails). The bucket count is sized from the live
// population, not from its span: sixteen buckets per pending event,
// rounded up to a power of two within [minBuckets, maxBuckets]. By
// Little's law the mean time an event waits between schedule and fire is
// live × fire interval; the window is more than eight times that (sixteen
// buckets per event, each more than half a fire interval wide once floored
// to a power of two), so by Markov's inequality at most one fire in eight
// was scheduled beyond it while the population and rate hold. In practice
// the share is a fraction of a percent: what lies beyond — periodic
// tickers, outage timers — pops off the ladder once per firing. Retunes
// are triggered by bucket over-fill, by width drift against the observed
// rate, or by ladder churn (more than one fire in eight leaving through
// the ladder, as on a kernel whose traffic lies beyond its boot window),
// and never fire under a steady load — which is how the zero-allocation
// guarantee holds.
//
// Tie-breaking: dequeue order is lexicographic (at, eseq) everywhere —
// the sorted front, the ladder heap, and the interleave between them.
// This reproduces the retired binary-heap kernel's FIFO order for
// simultaneous events exactly, which keeps the committed golden traces
// byte-identical.

import (
	"math"
	"math/bits"
	"slices"
)

const (
	minBuckets   = 64
	maxBuckets   = 1 << 16
	initialWidth = 256 * Microsecond
	maxWidth     = Second

	// sortedInvalid marks the front bucket as not-yet-sorted; it can never
	// equal a real scan position reached by advancing forward from zero.
	sortedInvalid = int64(math.MinInt64)
)

// slotLess is the queue's total order: time, then schedule sequence.
func (k *Kernel) slotLess(a, b int32) bool {
	if k.at[a] != k.at[b] {
		return k.at[a] < k.at[b]
	}
	return k.eseq[a] < k.eseq[b]
}

// absBucket maps a timestamp to its absolute bucket number. The width is
// a power of two precisely so this — run on every placement, window check
// and scan advance — is a shift, not a 64-bit division. Timestamps are
// never negative (the clock starts at zero and only advances), so the
// shift and a truncating divide agree.
func (k *Kernel) absBucket(t Time) int64 { return int64(t) >> k.shift }

// setWidth installs a bucket width, floored to a power of two for
// absBucket. Flooring errs toward finer buckets: occupancy lands at or
// below the tuned target and the surplus scan advances over empty buckets
// cost one array load each.
func (k *Kernel) setWidth(w Time) {
	s := bits.Len64(uint64(w)) - 1
	k.shift = uint(s)
	k.width = 1 << s
}

// inWindow reports whether absolute bucket ab falls inside the calendar's
// current window. Written as a difference so it cannot overflow even for
// timestamps near the Time extremes.
func (k *Kernel) inWindow(ab int64) bool {
	d := ab - k.scanAbs
	return d >= 0 && d < int64(len(k.bucket))
}

// place links a live slot into its calendar bucket — keeping the sorted
// front sorted — or pushes it onto the overflow ladder when its bucket
// lies outside the window. The common case — an in-window bucket that is
// not the sorted front — is a plain chain push kept small enough to
// inline into the schedule path; everything else is outlined.
//
// The ab != sortedAbs guard is exact: sortedAbs is either sortedInvalid
// or <= scanAbs, and an in-window ab is >= scanAbs, so equality holds
// only when ab == scanAbs == sortedAbs — precisely the sorted-front
// insert place must keep ordered.
func (k *Kernel) place(s int32) {
	ab := int64(k.at[s]) >> k.shift
	d := ab - k.scanAbs
	if d >= 0 && d < int64(len(k.bucket)) && ab != k.sortedAbs {
		i := int(ab & int64(len(k.bucket)-1))
		k.loc[s] = locCal
		k.calN++
		k.next[s] = k.bucket[i]
		k.bucket[i] = s
		return
	}
	k.placeSlow(s, ab)
}

func (k *Kernel) placeSlow(s int32, ab int64) {
	if !k.inWindow(ab) {
		k.overPush(s)
		return
	}
	k.loc[s] = locCal
	k.calN++
	k.frontInsert(int(ab&int64(len(k.bucket)-1)), s)
}

// frontInsert inserts a slot into the sorted front chain at bucket index i.
func (k *Kernel) frontInsert(i int, s int32) {
	head := k.bucket[i]
	if head < 0 || k.slotLess(s, head) {
		k.next[s] = head
		k.bucket[i] = s
		return
	}
	prev := head
	for n := k.next[prev]; n >= 0 && k.slotLess(n, s); n = k.next[prev] {
		prev = n
	}
	k.next[s] = k.next[prev]
	k.next[prev] = s
}

// enqueue places a freshly scheduled slot. The fast path — an in-window
// bucket that is not the sorted front, with the calendar comfortably
// sized — is the plain chain push of place, written out so the schedule
// path costs one call, not three. Everything else (re-anchoring a fully
// quiescent queue so a long idle gap never forces the scan to catch up,
// sorted-front inserts, the overflow ladder, grow-retunes) lives in
// enqueueSlow.
func (k *Kernel) enqueue(s int32) {
	ab := int64(k.at[s]) >> k.shift
	d := ab - k.scanAbs
	if d >= 0 && d < int64(len(k.bucket)) && ab != k.sortedAbs &&
		k.calN < 2*len(k.bucket) {
		i := int(ab & int64(len(k.bucket)-1))
		k.loc[s] = locCal
		k.calN++
		k.next[s] = k.bucket[i]
		k.bucket[i] = s
		return
	}
	k.enqueueSlow(s, ab)
}

func (k *Kernel) enqueueSlow(s int32, ab int64) {
	if k.calN == 0 && len(k.over) == 0 {
		k.scanAbs = ab
		k.sortedAbs = ab
	}
	k.place(s)
	if k.calN > 2*len(k.bucket) && len(k.bucket) < maxBuckets {
		k.retune()
	}
}

// Overflow ladder: an array-backed binary min-heap of slot ids ordered by
// slotLess. Push/pop reuse the shared backing array; no per-event
// allocation once it has grown to the workload's high-watermark.

// Allocates: the overflow ladder grows to the workload high-watermark, then reuses its backing array
func (k *Kernel) overPush(s int32) {
	k.loc[s] = locOver
	k.over = append(k.over, s)
	q := k.over
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !k.slotLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (k *Kernel) overPop() int32 {
	k.overPops++
	q := k.over
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	k.over = q
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && k.slotLess(q[r], q[l]) {
			l = r
		}
		if !k.slotLess(q[l], q[i]) {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	return top
}

// overPruneTop recycles cancelled slots sitting at the ladder's top so the
// top, when present, is always live.
func (k *Kernel) overPruneTop() {
	for len(k.over) > 0 && k.loc[k.over[0]]&flagStop != 0 {
		k.recycle(k.overPop())
	}
}

// sortFront sorts the chain of bucket index i — the bucket the scan has
// just reached — into ascending (at, eseq) order, pruning cancelled slots
// on the way through. Short chains (the steady case) use an insertion
// sort; a surge bucket falls back to slices.SortFunc.
// Allocates: chain-sort scratch and comparator are amortized across fires (see the zero-alloc benchmark)
func (k *Kernel) sortFront(i int) {
	k.sortedAbs = k.scanAbs
	c := k.scratch[:0]
	for s := k.bucket[i]; s >= 0; {
		nxt := k.next[s] // recycle reuses the link, so read it first
		if k.loc[s]&flagStop != 0 {
			k.calN--
			k.recycle(s)
		} else {
			c = append(c, s)
		}
		s = nxt
	}
	// c holds the LIFO chain newest first: reversed, a same-instant fan-out
	// is already sorted (see the file comment).
	slices.Reverse(c)
	k.sorted += uint64(len(c))
	if len(c) > 32 {
		slices.SortFunc(c, func(a, b int32) int {
			if k.slotLess(a, b) {
				return -1
			}
			return 1
		})
	} else {
		for x := 1; x < len(c); x++ {
			for y := x; y > 0 && k.slotLess(c[y], c[y-1]); y-- {
				c[y], c[y-1] = c[y-1], c[y]
			}
		}
	}
	if len(c) == 0 {
		k.bucket[i] = -1
		k.scratch = c
		return
	}
	k.bucket[i] = c[0]
	for x := 1; x < len(c); x++ {
		k.next[c[x-1]] = c[x]
	}
	k.next[c[len(c)-1]] = -1
	k.scratch = c[:0]
}

// peekNext returns the slot of the earliest pending event without removing
// it, plus whether it sits in the overflow ladder rather than the front
// bucket. It advances and sorts the front, prunes cancelled heads, and
// migrates the ladder into an empty calendar as needed. Reports false when
// no live events remain. The steady path — sorted non-empty front, live
// head — is a handful of loads and compares.
func (k *Kernel) peekNext() (int32, bool, bool) {
	for {
		k.overPruneTop()
		if k.calN == 0 {
			if len(k.over) == 0 {
				return -1, false, false
			}
			k.migrateOverflow()
			continue
		}
		mask := int64(len(k.bucket) - 1)
		i := int(k.scanAbs & mask)
		for k.bucket[i] < 0 {
			k.scanAbs++
			i = int(k.scanAbs & mask)
		}
		if k.scanAbs != k.sortedAbs {
			if h := k.bucket[i]; k.next[h] < 0 {
				// Single-entry chain — the overwhelmingly common case at
				// the tuned occupancy — is sorted by construction.
				k.sortedAbs = k.scanAbs
			} else if n := k.next[h]; k.next[n] < 0 &&
				k.loc[h]&flagStop == 0 && k.loc[n]&flagStop == 0 {
				// Two live entries: order them in place, skipping the
				// collect/relink machinery of the general sort.
				if k.slotLess(n, h) {
					k.next[n] = h
					k.next[h] = -1
					k.bucket[i] = n
				}
				k.sortedAbs = k.scanAbs
			} else {
				k.sortFront(i)
				if k.bucket[i] < 0 {
					continue
				}
			}
		}
		h := k.bucket[i]
		for h >= 0 && k.loc[h]&flagStop != 0 {
			k.bucket[i] = k.next[h]
			k.calN--
			k.recycle(h)
			h = k.bucket[i]
		}
		if h < 0 {
			continue
		}
		if len(k.over) > 0 && k.slotLess(k.over[0], h) {
			return k.over[0], true, true
		}
		return h, false, true
	}
}

// take removes a slot just returned by peekNext from its container.
func (k *Kernel) take(s int32, fromOver bool) {
	if fromOver {
		// peekNext only ever surfaces the ladder's top.
		k.overPop()
		return
	}
	// Otherwise s heads the sorted front chain.
	k.bucket[k.scanAbs&int64(len(k.bucket)-1)] = k.next[s]
	k.calN--
}

// migrateOverflow re-anchors the empty calendar at the ladder's earliest
// event and pulls everything inside the new window down into the buckets.
func (k *Kernel) migrateOverflow() {
	k.scanAbs = k.absBucket(k.at[k.over[0]])
	k.sortedAbs = sortedInvalid
	for len(k.over) > 0 {
		s := k.over[0]
		if k.loc[s]&flagStop != 0 {
			k.recycle(k.overPop())
			continue
		}
		if !k.inWindow(k.absBucket(k.at[s])) {
			break
		}
		k.overPop()
		k.place(s)
	}
	if k.calN > 2*len(k.bucket) && len(k.bucket) < maxBuckets {
		k.retune()
	}
}

// retune rebuilds the calendar: bucket count and width re-derived from the
// live population and the observed fire rate, window re-anchored at the
// earliest event, cancelled slots pruned along the way. Called when the
// buckets over-fill, the width drifts from the event rate, or the ladder
// churns; never on the steady path.
// Allocates: the retune rebuild may grow its reused scratch; it never runs on the steady path
func (k *Kernel) retune() {
	k.retunes++
	live := k.scratch[:0]
	for i := range k.bucket {
		for s := k.bucket[i]; s >= 0; {
			nxt := k.next[s]
			if k.loc[s]&flagStop != 0 {
				k.recycle(s)
			} else {
				live = append(live, s)
			}
			s = nxt
		}
		k.bucket[i] = -1
	}
	for _, s := range k.over {
		if k.loc[s]&flagStop != 0 {
			k.recycle(s)
		} else {
			live = append(live, s)
		}
	}
	k.over = k.over[:0]
	k.calN = 0
	k.sortedAbs = sortedInvalid
	defer func() { k.scratch = live[:0] }()

	if len(live) == 0 {
		k.setBuckets(minBuckets)
		return
	}

	ats := k.atScratch[:0]
	for _, s := range live {
		ats = append(ats, k.at[s])
	}
	slices.Sort(ats)
	k.atScratch = ats[:0]
	k.setWidth(k.tuneWidth(ats))
	k.tuneNow, k.tuneFired = k.now, k.fired

	// Bucket count: sixteen per live event (see the file comment), not the
	// span over the width — one ticker seconds away would buy 65,536 heads
	// for a hundred events.
	nb := minBuckets
	for nb < 16*len(live) && nb < maxBuckets {
		nb <<= 1
	}
	k.setBuckets(nb)
	k.scanAbs = k.absBucket(ats[0])
	for _, s := range live {
		k.place(s)
	}
}

// tuneWidth derives the bucket width. The primary estimator is the
// observed fire rate — the simulated time advanced per event since the
// last tuneCheck or retune, at most tunePeriod fires back — which directly
// targets an occupancy of about one event per bucket at the scan front
// regardless of how the *pending* population is shaped. (Population gaps
// are a trap here: the simulator's pending set is bimodal, a handful of
// fast in-flight packet events plus a crowd of slow periodic tickers, and
// any population-gap statistic tunes for the tickers and piles the hot
// events into one bucket.) When too few events have fired since the last
// check to estimate a rate — cold start, or a burst enqueue forcing a grow
// — fall back to twice the mean gap of the middle 80% of the sorted
// pending timestamps.
func (k *Kernel) tuneWidth(ats []Time) Time {
	var w Time
	if fires := k.fired - k.tuneFired; fires >= 512 && k.now > k.tuneNow {
		w = (k.now - k.tuneNow) / Time(fires)
	} else if n := len(ats); n >= 2 {
		lo, hi := n/10, n-1-n/10
		span := ats[hi] - ats[lo]
		if span <= 0 {
			// The trimmed core is one dense instant; use the full span.
			span = ats[n-1] - ats[0]
		}
		w = 2 * span / Time(n-1)
	} else {
		w = initialWidth
	}
	if w < 1 {
		w = 1
	}
	if w > maxWidth {
		w = maxWidth
	}
	if w == 1 && len(ats) >= 2 && ats[len(ats)-1] == ats[0] {
		// A fully degenerate same-instant population says nothing about
		// spacing; keep a sane default rather than 1µs buckets.
		w = initialWidth
	}
	return w
}

// setBuckets installs an empty bucket array of exactly nb entries (a power
// of two), reusing the current array when the size already matches.
// Allocates: the bucket array reallocates only when the tuned size changes
func (k *Kernel) setBuckets(nb int) {
	if len(k.bucket) != nb {
		k.bucket = make([]int32, nb)
	}
	for i := range k.bucket {
		k.bucket[i] = -1
	}
}

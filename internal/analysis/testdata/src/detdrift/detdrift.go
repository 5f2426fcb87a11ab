// Package detdrift is a linter fixture: every marked line must produce
// exactly the finding in its trailing want comment, and nothing else.
// The package opts into the deterministic set with the directive below.
//
// lint:deterministic
package detdrift

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// step shows duration constants and arithmetic stay legal.
const step = 10 * time.Millisecond

func wallClock() int64 {
	return time.Now().UnixNano() // want detdrift "wall-clock time.Now"
}

func sinceStart(t0 time.Time) time.Duration {
	return time.Since(t0) // want detdrift "wall-clock time.Since"
}

func globalStream() int {
	return rand.Intn(6) // want detdrift "global math/rand.Intn"
}

// seeded builds a private generator, which is deterministic to use.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// mapToOrderedSlice collects map values and returns them unsorted. This
// is legal at the range — the collect half of the idiom — and the
// obligation to sort transfers to every caller (Summary.RetMapOrder).
func mapToOrderedSlice(m map[int]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// useUnsorted consumes the map-ordered result without laundering it.
func useUnsorted(m map[int]float64) float64 {
	vs := mapToOrderedSlice(m) // want detdrift "result of mapToOrderedSlice is in map-iteration order"
	return vs[0]
}

// useSorted launders the result through a sort: no finding.
func useSorted(m map[int]float64) float64 {
	vs := mapToOrderedSlice(m)
	sort.Float64s(vs)
	return vs[0]
}

// passThrough returns the result onward: the obligation defers to its own
// callers instead of firing here.
func passThrough(m map[int]float64) []float64 {
	return mapToOrderedSlice(m)
}

// mapKeysSorted is the canonical fix and must not be a finding.
func mapKeysSorted(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// mapToMap only fills another map: order-insensitive.
func mapToMap(m map[int]int) map[int]int {
	inv := make(map[int]int, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

func mapPrint(m map[string]int) {
	for k, v := range m { // want detdrift "a call to Println"
		fmt.Println(k, v)
	}
}

func mapFloatSum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want detdrift "a floating-point accumulation into sum"
		sum += v
	}
	return sum
}

func consume(int) {}

// mapFeedsCall hands the key to a callee. Whether consume orders anything
// is not the linter's call to make: the callee may schedule, queue or
// mutate ordered state, so the loop is a finding, and an order-insensitive
// callee takes a reasoned suppression.
func mapFeedsCall(m map[int]bool) {
	for k := range m { // want detdrift "a call to consume with the iteration variable"
		consume(k)
	}
}

// lineEngine stands in for updating.Network: SetLineUp queues a full-table
// resync on the restored line, so the order of calls is observable.
type lineEngine struct{ resync []int }

func (e *lineEngine) SetLineUp(l int) { e.resync = append(e.resync, l) }

// repairInMapOrder is the one real bug this rule has caught, verbatim from
// internal/check/floodcheck.go:136 at tree 89e0fd6 (fixed in PR 5 by
// collecting and sorting the links first): the flood checker's repair loop
// restored downed lines in map order, so a "deterministic" reproducer
// replayed differently from run to run and ddmin shrinking chased noise.
func repairInMapOrder(nw *lineEngine, down map[int]bool) {
	for l := range down { // want detdrift "a call to SetLineUp with the iteration variable"
		nw.SetLineUp(l)
	}
}

// mapCountSuppressed shows a reasoned suppression silencing the rule.
func mapCountSuppressed(m map[int]float64) float64 {
	var sum float64
	// lint:ignore detdrift the values are integral counters; addition commutes exactly
	for _, v := range m {
		sum += v
	}
	return sum
}

// badSuppression carries a directive without a reason: it suppresses
// nothing and is itself reported under the pseudo-rule "lint".
func badSuppression() int64 {
	// want(+1) lint "malformed lint:ignore"
	// lint:ignore detdrift
	return time.Now().Unix() // want detdrift "wall-clock time.Now"
}

// Package handlecheck is a linter fixture for sim.Handle discipline:
// no silently discarded handles and no Pending after Cancel.
package handlecheck

import "repro/internal/sim"

func discardHandle(k *sim.Kernel) {
	k.Schedule(5, func(sim.Time) {}) // want handlecheck "sim.Handle discarded"
}

func discardTicker(k *sim.Kernel) {
	k.Every(7, func(sim.Time) {}) // want handlecheck "sim.Ticker discarded"
}

// explicitFireAndForget is the accepted marker for intentional discards.
func explicitFireAndForget(k *sim.Kernel) {
	_ = k.Schedule(5, func(sim.Time) {})
}

// The error-returning schedulers hide the handle inside a result tuple;
// discarding the whole statement must still be caught.
func discardTupleHandle(k *sim.Kernel) {
	k.ScheduleAt(5, func(sim.Time) {}) // want handlecheck "sim.Handle discarded"
}

// explicitTupleFireAndForget keeps the error but deliberately blanks the
// handle — the accepted marker, same as the single-result form.
func explicitTupleFireAndForget(k *sim.Kernel) error {
	_, err := k.ScheduleAt(5, func(sim.Time) {})
	return err
}

func pendingAfterCancel(k *sim.Kernel) bool {
	h := k.Schedule(5, func(sim.Time) {})
	h.Cancel()
	return h.Pending() // want handlecheck "h.Pending() after h.Cancel() on line"
}

// rearm is legal: the reassignment makes Pending meaningful again.
func rearm(k *sim.Kernel) bool {
	h := k.Schedule(5, func(sim.Time) {})
	h.Cancel()
	h = k.Schedule(9, func(sim.Time) {})
	return h.Pending()
}

// cancelThenDiscard is the PR 2 double-transmitter shape: the replacement
// event's handle is dropped right after the old one was cancelled.
func cancelThenDiscard(k *sim.Kernel) {
	h := k.Schedule(5, func(sim.Time) {})
	h.Cancel()
	k.Schedule(9, func(sim.Time) {}) // want handlecheck "did you mean h = "
}

// suppressedDiscard shows a reasoned suppression silencing the rule.
func suppressedDiscard(k *sim.Kernel) {
	// lint:ignore handlecheck this fixture event outlives every caller by design
	k.Schedule(5, func(sim.Time) {})
}

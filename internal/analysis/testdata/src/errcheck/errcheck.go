// Package errcheck is a linter fixture for the domain error rule: the
// error results of ScheduleAt/ScheduleCallAt/Parse must never be dropped.
package errcheck

import "errors"

var errPast = errors.New("past event")

// ScheduleAt mimics the kernel API shape: the last result is an error.
func ScheduleAt(at int) (int, error) {
	if at < 0 {
		return 0, errPast
	}
	return at, nil
}

// Parse mimics scenario/topology parsing.
func Parse(s string) error {
	if s == "" {
		return errors.New("empty input")
	}
	return nil
}

func dropBare() {
	ScheduleAt(1) // want errcheck-lite "error from ScheduleAt discarded"
}

func dropBlank() int {
	h, _ := ScheduleAt(2) // want errcheck-lite "error from ScheduleAt assigned to _"
	return h
}

func dropParse() {
	Parse("x") // want errcheck-lite "error from Parse discarded"
}

func dropGo() {
	go Parse("x") // want errcheck-lite "discarded by go statement"
}

func dropDefer() {
	defer Parse("x") // want errcheck-lite "discarded by defer"
}

// handled is the idiomatic shape and produces nothing.
func handled() error {
	h, err := ScheduleAt(3)
	if err != nil {
		return err
	}
	_ = h
	return nil
}

// suppressedDrop shows a reasoned suppression silencing the rule.
func suppressedDrop() {
	// lint:ignore errcheck-lite at=1 is in the future by construction in this fixture
	ScheduleAt(1)
}

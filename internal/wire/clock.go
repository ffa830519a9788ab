package wire

import "time"

// Clock abstracts the two time operations the wire package performs —
// reading the wall clock and waiting — so reconnect-backoff behavior is
// testable without sleeping wall-time. Production code uses the package
// default (the real clock); tests inject a fake whose After channels they
// fire by hand.
//
// This file is the only one in internal/wire allowed to read or wait on
// the wall clock directly; cmd/qbvet's TestClockReadsAreNamed pins that.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time after d elapses.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock: plain time package calls.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock returns the production Clock backed by the time package.
func RealClock() Clock { return realClock{} }

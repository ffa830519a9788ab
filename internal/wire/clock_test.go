package wire

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable Clock for backoff tests: it records every
// After duration and either fires the returned channel immediately
// (autoFire) or leaves it pending so a test can observe the cycle parked
// in backoff. Safe for concurrent use — the reconnect cycle sleeps on a
// different goroutine than the test.
type fakeClock struct {
	mu       sync.Mutex
	now      time.Time
	delays   []time.Duration
	autoFire bool
	asleep   chan time.Duration // one send per After call
}

func newFakeClock(autoFire bool) *fakeClock {
	return &fakeClock{
		now:      time.Unix(0, 0),
		autoFire: autoFire,
		asleep:   make(chan time.Duration, 1024),
	}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	f.delays = append(f.delays, d)
	f.now = f.now.Add(d)
	ch := make(chan time.Time, 1)
	if f.autoFire {
		ch <- f.now
	}
	f.mu.Unlock()
	select {
	case f.asleep <- d:
	default:
	}
	return ch
}

func (f *fakeClock) Delays() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.delays...)
}

// TestReconnectBackoffSchedule pins the backoff shape — 25ms doubling to
// the 1s cap, one sleep before every attempt after the first of the ten,
// each sleep jittered into [nominal/2, nominal] — without sleeping any
// wall time at all. The jitter generator is seeded from the injected
// clock, so the schedule is deterministic per fake-clock state; the test
// asserts the envelope rather than pinning the draws, plus that the draws
// are not all sitting on the nominal schedule (i.e. jitter is real).
func TestReconnectBackoffSchedule(t *testing.T) {
	fc := newFakeClock(true)
	rc := newReconnector(func() (*Client, error) { return nil, errors.New("dial refused") }, fc)
	defer rc.Close()

	if err := rc.Ping(); err == nil || !strings.Contains(err.Error(), "gave up after 10 attempts") {
		t.Fatalf("Ping against refusing dial: %v", err)
	}
	nominal := []time.Duration{
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second,
		time.Second,
		time.Second,
	}
	got := fc.Delays()
	if len(got) != len(nominal) {
		t.Fatalf("backoff slept %d times (%v), want %d", len(got), got, len(nominal))
	}
	jittered := false
	for i := range nominal {
		if got[i] < nominal[i]/2 || got[i] > nominal[i] {
			t.Fatalf("backoff sleep %d = %v outside jitter bounds [%v, %v] (all: %v)",
				i, got[i], nominal[i]/2, nominal[i], got)
		}
		if got[i] != nominal[i] {
			jittered = true
		}
	}
	if !jittered {
		t.Fatalf("every backoff sleep landed exactly on the nominal schedule %v — jitter is not being applied", got)
	}
}

// TestReconnectBackoffJitterSpread runs two reconnect cycles whose fake
// clocks start at different instants and checks their schedules diverge —
// the thundering-herd property: clients that crash at different times do
// not redial in lockstep.
func TestReconnectBackoffJitterSpread(t *testing.T) {
	schedule := func(startNano int64) []time.Duration {
		fc := newFakeClock(true)
		fc.now = time.Unix(0, startNano)
		rc := newReconnector(func() (*Client, error) { return nil, errors.New("dial refused") }, fc)
		defer rc.Close()
		if err := rc.Ping(); err == nil {
			t.Fatal("Ping against refusing dial succeeded")
		}
		return fc.Delays()
	}
	a, b := schedule(1), schedule(2)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedules have different shapes: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return // diverged: different seeds produce different draws
		}
	}
	t.Fatalf("two clients seeded differently produced identical backoff schedules %v", a)
}

// TestReconnectBackoffCloseAborts parks the reconnect cycle on a fake
// After channel that never fires and proves Close unblocks it — the
// deterministic replacement for sleeping real wall time to "probably" be
// inside the backoff select.
func TestReconnectBackoffCloseAborts(t *testing.T) {
	fc := newFakeClock(false)
	rc := newReconnector(func() (*Client, error) { return nil, errors.New("dial refused") }, fc)
	done := make(chan error, 1)
	go func() { done <- rc.Ping() }()

	select {
	case <-fc.asleep: // the cycle is provably parked in its backoff select
	case <-time.After(5 * time.Second):
		t.Fatal("reconnect cycle never reached its backoff sleep")
	}
	rc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, errReconnClosed) {
			t.Fatalf("Ping after Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the reconnect cycle")
	}
}

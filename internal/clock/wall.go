// Wall-clock abstraction for components whose correctness is defined
// by real-time timeouts — dispatch leases, worker expiry, retry
// backoff. This is a separate concern from the virtual-cycle Clock
// above, which drives the simulated platform: the simulator's time is
// part of an experiment's result, while wall time here only governs
// failure detection. Production code takes a Wall and gets the system
// clock; tests inject a FakeWall and step it deterministically, so "a
// lease expires after 30 seconds" is asserted in microseconds with no
// sleeps and no flakes.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Wall is the minimal real-time surface the dispatch layer needs:
// wall-clock reads and one-shot timers.
type Wall interface {
	// Now returns the current wall time.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed. Like time.After, the timer cannot be stopped — keep d
	// bounded.
	After(d time.Duration) <-chan time.Time
}

// System returns the real wall clock.
func System() Wall { return systemWall{} }

type systemWall struct{}

func (systemWall) Now() time.Time                         { return time.Now() }
func (systemWall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeWall is a manually-stepped Wall for tests. Time only moves when
// Advance is called; timers registered with After fire synchronously
// inside the Advance that reaches them, in deadline order.
type FakeWall struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*wallWaiter
}

type wallWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeWall builds a fake wall clock starting at start. A zero start
// gets an arbitrary fixed epoch so tests never depend on the host
// clock.
func NewFakeWall(start time.Time) *FakeWall {
	if start.IsZero() {
		start = time.Date(2009, 11, 10, 23, 0, 0, 0, time.UTC)
	}
	return &FakeWall{now: start}
}

// Now returns the fake's current time.
func (f *FakeWall) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After registers a one-shot timer d from the fake's current time. A
// non-positive d fires immediately.
func (f *FakeWall) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, &wallWaiter{at: f.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every timer whose
// deadline was reached, earliest first. Each fired channel receives the
// fake time at its own deadline, matching real timer semantics.
func (f *FakeWall) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	sort.SliceStable(f.waiters, func(i, j int) bool { return f.waiters[i].at.Before(f.waiters[j].at) })
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if w.at.After(f.now) {
			kept = append(kept, w)
			continue
		}
		w.ch <- w.at
	}
	f.waiters = kept
}

// Waiters reports how many timers are pending — a test synchronization
// aid ("the reaper has parked on its next tick").
func (f *FakeWall) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

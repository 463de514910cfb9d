package detector

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pcore"
	"repro/internal/platform"
)

// countYields replaces the run loop's yield with a counter for the
// test's duration.
func countYields(t *testing.T) *atomic.Int32 {
	t.Helper()
	n := new(atomic.Int32)
	yield = func() { n.Add(1) }
	t.Cleanup(func() { yield = runtime.Gosched })
	return n
}

// atLeastTwoProcs runs the test with at least two Ps, so that a lone
// run loop leaves one idle.
func atLeastTwoProcs(t *testing.T) int32 {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
		procs = 2
	}
	return int32(procs)
}

// newSpinner returns a detector over one task that computes forever.
func newSpinner(t *testing.T) *Detector {
	t.Helper()
	p := newP(t, platform.Config{})
	if _, err := p.Slave.CreateTask("spin", 5, func(c *pcore.Ctx) {
		for {
			c.Compute(5)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return New(p, nil, Options{ProgressWindow: 1 << 40})
}

// spinUntilChecks runs a spinner through RunUntil until its done
// predicate has been asked checks times, and returns how many run
// loops the predicate saw active each time.
func spinUntilChecks(t *testing.T, checks int) []int32 {
	t.Helper()
	var seen []int32
	done := func() bool {
		seen = append(seen, running.Load())
		return len(seen) == checks
	}
	if rep := newSpinner(t).RunUntil(1<<20, done); rep != nil {
		t.Fatalf("spinning task reported %v", rep)
	}
	if len(seen) != checks {
		t.Fatalf("done asked %d times, want %d", len(seen), checks)
	}
	return seen
}

// TestRunUntilYieldsOnlyWhenLoopsFillEveryP pins the yield rule: a run
// loop yields at a check only while at least GOMAXPROCS loops are
// active, and then once per check.
func TestRunUntilYieldsOnlyWhenLoopsFillEveryP(t *testing.T) {
	const checks = 5
	t.Run("lone loop", func(t *testing.T) {
		atLeastTwoProcs(t)
		yields := countYields(t)
		for _, n := range spinUntilChecks(t, checks) {
			if n != 1 {
				t.Fatalf("%d run loops active inside RunUntil, want 1", n)
			}
		}
		if n := yields.Load(); n != 0 {
			t.Fatalf("a lone run loop yielded %d times, want 0", n)
		}
	})
	t.Run("every P busy", func(t *testing.T) {
		others := atLeastTwoProcs(t) - 1
		running.Add(others) // stand-ins for the loops on the other Ps
		defer running.Add(-others)
		yields := countYields(t)
		spinUntilChecks(t, checks)
		if n := yields.Load(); n != checks {
			t.Fatalf("with every P running a loop, %d yields over %d checks, want one per check", n, checks)
		}
	})
	t.Run("concurrent loops", func(t *testing.T) {
		// One real loop per P. Each holds its first and its last check
		// until all have reached theirs, so that every check but a loop's
		// first, which may run before the others start, sees every P busy.
		procs := int(atLeastTwoProcs(t))
		yields := countYields(t)
		ds := make([]*Detector, procs)
		for i := range ds {
			ds[i] = newSpinner(t)
		}
		var first, last, wg sync.WaitGroup
		first.Add(procs)
		last.Add(procs)
		for _, d := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				asked := 0
				done := func() bool {
					switch asked++; asked {
					case 1:
						first.Done()
						first.Wait()
					case checks:
						last.Done()
						last.Wait()
						return true
					}
					return false
				}
				if rep := d.RunUntil(1<<20, done); rep != nil {
					t.Errorf("spinning task reported %v", rep)
				}
			}()
		}
		wg.Wait()
		if n, lo, hi := int(yields.Load()), procs*(checks-1), procs*checks; n < lo || n > hi {
			t.Fatalf("%d loops on %d Ps yielded %d times over %d checks each, want %d to %d", procs, procs, n, checks, lo, hi)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d run loops counted active after all ended, want 0", n)
		}
	})
}

// TestRunUntilCountsItselfOnlyWhileRunning checks that every way out of
// RunUntil takes it off the count of active run loops: a clean end and
// a done() stop here, a host panic in TestHostPanicLeavesRunUntil.
func TestRunUntilCountsItselfOnlyWhileRunning(t *testing.T) {
	t.Run("clean end", func(t *testing.T) {
		p := newP(t, platform.Config{})
		if _, err := p.Slave.CreateTask("once", 5, func(c *pcore.Ctx) {
			c.Compute(5)
			c.Progress()
		}); err != nil {
			t.Fatal(err)
		}
		if rep := New(p, nil, Options{}).RunUntil(100000, nil); rep != nil {
			t.Fatalf("clean run reported %v", rep)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d run loops counted active after a clean end, want 0", n)
		}
	})
	t.Run("done stop", func(t *testing.T) {
		spinUntilChecks(t, 3)
		if n := running.Load(); n != 0 {
			t.Fatalf("%d run loops counted active after a done() stop, want 0", n)
		}
	})
}

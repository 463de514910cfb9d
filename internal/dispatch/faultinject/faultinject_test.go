package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNilHooksNeverFire: a worker without hooks, and hooks whose fields
// are nil, never kill or sever.
func TestNilHooksNeverFire(t *testing.T) {
	for name, h := range map[string]*Hooks{"nil Hooks": nil, "nil fields": {}} {
		for i := 0; i < 3; i++ {
			if h.Kill("c") || h.Sever("c") {
				t.Fatalf("%s: a hook fired", name)
			}
		}
	}
}

// TestHooksCallTheirFields: each method answers what its field returns
// and hands the cell id through.
func TestHooksCallTheirFields(t *testing.T) {
	var killed, severed string
	h := &Hooks{
		KillBeforeExecute: func(id string) bool { killed = id; return true },
		SeverCompletion:   func(id string) bool { severed = id; return true },
	}
	if !h.Kill("k") || killed != "k" || !h.Sever("s") || severed != "s" {
		t.Fatalf("hooks answered kill=%q sever=%q", killed, severed)
	}
}

// TestKillAfterCellsFiresFromCallNPlusOne: n cells start, and every
// grant from the (n+1)-th on kills.
func TestKillAfterCellsFiresFromCallNPlusOne(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		kill := KillAfterCells(n)
		for call := 1; call <= n+4; call++ {
			if got, want := kill(fmt.Sprint(call)), call > n; got != want {
				t.Fatalf("KillAfterCells(%d), call %d: fired %v, want %v", n, call, got, want)
			}
		}
	}
}

// TestSeverFirstCompletionsDropsExactlyN: the first n completions are
// dropped, every later one goes through.
func TestSeverFirstCompletionsDropsExactlyN(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		sever := SeverFirstCompletions(n)
		for call := 1; call <= n+4; call++ {
			if got, want := sever(fmt.Sprint(call)), call <= n; got != want {
				t.Fatalf("SeverFirstCompletions(%d), call %d: fired %v, want %v", n, call, got, want)
			}
		}
	}
}

// TestCountingHooksUnderConcurrentCallers: with 8 goroutines calling at
// once, as a worker's executors do, KillAfterCells(n) lets exactly n
// calls through and SeverFirstCompletions(n) drops exactly n.
func TestCountingHooksUnderConcurrentCallers(t *testing.T) {
	const callers, calls, n = 8, 50, 37
	h := &Hooks{KillBeforeExecute: KillAfterCells(n), SeverCompletion: SeverFirstCompletions(n)}
	var started, severed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if !h.Kill("c") {
					started.Add(1)
				}
				if h.Sever("c") {
					severed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if started.Load() != n || severed.Load() != n {
		t.Fatalf("of %d concurrent calls each, %d cells started and %d completions were severed; want %d of both", callers*calls, started.Load(), severed.Load(), n)
	}
}

package core

import (
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/detector"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
)

// TestBuggyTrialAllocatesUnder82KB bounds the heap bytes of one trial
// that finds a bug: the paper's first case study, whose GC fault
// crashes pCore after 54 commands. Recording and detection allocate
// next to nothing per command and check, and the report's journal is a
// view rendered only when printed, so the platform's own set-up
// dominates at about 73 KB (78 KB under -race). A journal of 112-byte
// entries in a doubling array, a wait-for graph built at every check
// and the per-task sequences split again per trial took it to about
// 92 KB; a result slice sized to the whole pattern, a heap-allocated
// clock event and closure per mailbox hop, and per-command coverage keys
// to about 140 KB; rendering the dump at detection, copying δS per
// command and snapshotting the kernel per check would double that.
func TestBuggyTrialAllocatesUnder82KB(t *testing.T) {
	cfg := Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 16, S: 24, Op: pattern.OpRoundRobin, Seed: 3,
		Factory: app.QuicksortFactory(99),
		Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
	}
	if _, err := AdaptiveTest(cfg); err != nil { // warm the PFA cache
		t.Fatal(err)
	}
	const trials = 8
	var before, after runtime.MemStats
	var out *Outcome
	runtime.ReadMemStats(&before)
	for i := 0; i < trials; i++ {
		o, err := AdaptiveTest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = o
	}
	runtime.ReadMemStats(&after)
	if out.Bug == nil || out.Bug.Kind != detector.BugCrash {
		t.Fatalf("trial found %v, want the GC crash", out.Bug)
	}
	if perTrial := (after.TotalAlloc - before.TotalAlloc) / trials; perTrial >= 82*1024 {
		t.Fatalf("a buggy trial allocates %d bytes, want under 82 KB", perTrial)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/bridge"
	"repro/internal/detector"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
)

// kcfgGCLeak is the shared faulty-kernel configuration for crash tests.
func kcfgGCLeak() pcore.Config {
	return pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}}
}

func TestAdaptiveTestCleanRun(t *testing.T) {
	out, err := AdaptiveTest(Config{
		RE:      pfa.PCoreRE,
		PD:      pfa.PCoreDistribution(),
		N:       4,
		S:       8,
		Op:      pattern.OpRoundRobin,
		Seed:    1,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("clean run found %v", out.Bug)
	}
	if !out.Finished {
		t.Fatal("committer did not finish")
	}
	if out.CommandsIssued != 4*8 {
		t.Fatalf("issued %d commands", out.CommandsIssued)
	}
	if out.Journal.Len() != out.CommandsIssued {
		t.Fatalf("journal %d records", out.Journal.Len())
	}
	if out.Coverage.Services == 0 {
		t.Fatal("no service coverage")
	}
	if out.Duration == 0 || out.Steps == 0 {
		t.Fatal("no time consumed")
	}
}

func TestAdaptiveTestReproducible(t *testing.T) {
	cfg := Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 3, S: 10, Op: pattern.OpRandom, Seed: 42,
		Factory: app.SpinFactory(),
	}
	a, err := AdaptiveTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdaptiveTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Journal.Dump() != b.Journal.Dump() {
		t.Fatal("same seed, different journals")
	}
	if a.Duration != b.Duration || a.CommandsIssued != b.CommandsIssued {
		t.Fatal("same seed, different outcome")
	}
}

func TestAdaptiveTestAllServicesLegal(t *testing.T) {
	// With a legality-respecting PFA, no command may come back as a
	// service error: the patterns follow the task life cycle.
	out, err := AdaptiveTest(Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 6, S: 20, Op: pattern.OpSequential, Seed: 7,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("bug %v", out.Bug)
	}
	if out.StatusCounts[bridge.StatusServiceError] != 0 {
		t.Fatalf("sequential legal pattern produced service errors: %v", out.StatusCounts)
	}
}

func TestAdaptiveTestInterleavedLegality(t *testing.T) {
	// Interleaving legal per-task patterns keeps them legal per task:
	// every status should still be OK under round-robin merging.
	out, err := AdaptiveTest(Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 5, S: 15, Op: pattern.OpRoundRobin, Seed: 11,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.StatusCounts[bridge.StatusServiceError] != 0 {
		t.Fatalf("statuses %v", out.StatusCounts)
	}
}

func TestCaseStudy1StressGCCrash(t *testing.T) {
	// The paper's first case study: 16 quicksort tasks under create/
	// delete churn with the GC fault armed → pCore crashes; pTest's bug
	// detector reports it with the fault attached.
	out, err := AdaptiveTest(Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 16, S: 24, Op: pattern.OpRoundRobin, Seed: 3,
		Factory: app.QuicksortFactory(99),
		Kernel: pcore.Config{
			GCEvery: 4,
			Faults:  pcore.FaultPlan{GCLeakEvery: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug == nil {
		t.Fatal("GC fault not discovered")
	}
	if out.Bug.Kind != detector.BugCrash {
		t.Fatalf("bug kind %v", out.Bug.Kind)
	}
	f := out.Bug.Fault
	if f == nil || (f.Reason != pcore.FaultPoolExhausted && f.Reason != pcore.FaultGCCorruption) {
		t.Fatalf("fault %v", f)
	}
	if out.Bug.Journal.Len() == 0 {
		t.Fatal("no reproduction journal attached")
	}
}

func TestCaseStudy1HealthyKernelSurvives(t *testing.T) {
	// Same stress without the fault: the kernel must survive the churn.
	out, err := AdaptiveTest(Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 16, S: 24, Op: pattern.OpRoundRobin, Seed: 3,
		Factory: app.QuicksortFactory(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("healthy kernel reported %v", out.Bug)
	}
	if !out.Finished {
		t.Fatal("stress run did not finish")
	}
}

// suspendResumeStress is the case-study-2 stress distribution: pure
// suspend/resume cycles with task deletion pruned away (deleting a fork
// holder orphans the lock, a different anomaly measured separately by
// the fault-matrix ablation).
func suspendResumeStress() pfa.Distribution {
	return pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TS": 1},
		"TS":           {"TR": 1},
		"TR":           {"TS": 1, "TD": 0},
	}
}

func TestCaseStudy2DiningDeadlock(t *testing.T) {
	// The paper's second case study: three philosopher tasks over three
	// mutually exclusive resources; the merger's cyclic suspend/resume
	// stress forces the cyclic acquisition order and pTest discovers the
	// deadlock as a wait-for-graph cycle. (Seed 0 is verified
	// deterministic; the merger-op bench sweeps the discovery rate.)
	factory, _ := app.Philosophers(3, 100000, false)
	out, err := AdaptiveTest(Config{
		RE:         "TC (TS TR)+ TD$",
		PD:         suspendResumeStress(),
		N:          3,
		S:          41,
		Op:         pattern.OpCyclic,
		Seed:       0,
		CommandGap: 100,
		Factory:    factory,
		Kernel:     pcore.Config{Quantum: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug == nil || out.Bug.Kind != detector.BugDeadlock {
		t.Fatalf("bug %v", out.Bug)
	}
	if len(out.Bug.Cycle) < 2 {
		t.Fatalf("cycle %v", out.Bug.Cycle)
	}
	if out.Bug.Journal.Len() == 0 {
		t.Fatal("no reproduction journal")
	}
}

func TestCaseStudy2SequentialMissesDeadlock(t *testing.T) {
	// Without interleaving (sequential op) the same program and the same
	// pattern content never deadlock — the contrast that makes the
	// merger the load-bearing component.
	factory, _ := app.Philosophers(3, 100000, false)
	out, err := AdaptiveTest(Config{
		RE:         "TC (TS TR)+ TD$",
		PD:         suspendResumeStress(),
		N:          3,
		S:          41,
		Op:         pattern.OpSequential,
		Seed:       0,
		CommandGap: 100,
		Factory:    factory,
		Kernel:     pcore.Config{Quantum: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("sequential op found %v", out.Bug)
	}
}

func TestCaseStudy2OrphanedLockAnomaly(t *testing.T) {
	// With task deletion left in the stress pattern, pTest instead
	// discovers the orphaned-lock anomaly: TD of a fork holder leaks the
	// mutex and later incarnations block forever.
	factory, _ := app.Philosophers(3, 100000, false)
	out, err := AdaptiveTest(Config{
		RE:      "TC (TS TR)+ TD$",
		N:       3,
		S:       40,
		Op:      pattern.OpCyclic,
		Seed:    0,
		Factory: factory,
		Kernel:  pcore.Config{Quantum: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug == nil || out.Bug.Kind != detector.BugHang {
		t.Fatalf("bug %v", out.Bug)
	}
	if !strings.Contains(out.Bug.Detail, "owned by terminated tasks") {
		t.Fatalf("detail %q", out.Bug.Detail)
	}
}

func TestCampaignFindsFirstBug(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Base: Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 8, S: 16, Op: pattern.OpRoundRobin, Seed: 10,
			Factory: app.QuicksortFactory(5),
			Kernel: pcore.Config{
				GCEvery: 4,
				Faults:  pcore.FaultPlan{GCLeakEvery: 2},
			},
		},
		Trials: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) == 0 {
		t.Fatal("campaign found nothing")
	}
	if res.FirstBugTrial == 0 {
		t.Fatal("first bug trial unset")
	}
	if res.BugRate() <= 0 {
		t.Fatal("bug rate zero")
	}
	if res.Trials > 5 {
		t.Fatalf("ran %d trials", res.Trials)
	}
}

func TestCampaignKeepGoing(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Base: Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 2, S: 6, Op: pattern.OpSequential, Seed: 20,
			Factory: app.SpinFactory(),
		},
		Trials:    3,
		KeepGoing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 3 || res.CleanFinishes != 3 {
		t.Fatalf("trials %d clean %d", res.Trials, res.CleanFinishes)
	}
}

func TestDedupRemovesReplicates(t *testing.T) {
	// Tiny pattern space: duplicates are inevitable; Dedup must remove
	// them before merging.
	out, err := AdaptiveTest(Config{
		RE: "TC TD$", N: 8, S: 2, Op: pattern.OpRoundRobin, Seed: 5,
		Dedup:   true,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Patterns) >= 8 {
		t.Fatalf("dedup kept %d patterns", len(out.Patterns))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := AdaptiveTest(Config{RE: "(((", N: 1, S: 1}); err == nil {
		t.Fatal("bad RE accepted")
	}
	if _, err := AdaptiveTest(Config{
		RE: "a | b",
		PD: pfa.Distribution{pfa.StartLabel: {"a": -1, "b": 2}},
		N:  1, S: 1,
	}); err == nil {
		t.Fatal("bad PD accepted")
	}
}

func TestArchitectureWiring(t *testing.T) {
	// Figure 2 structural check: one run touches every architecture box —
	// pattern generator (patterns), pattern merger (merged), committer
	// (results/journal), committee (slave services executed), bug
	// detector (clean verdict), communication infrastructure (commands
	// travelled the bridge).
	out, err := AdaptiveTest(Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 2, S: 6, Op: pattern.OpRoundRobin, Seed: 2,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Patterns) != 2 {
		t.Fatal("pattern generator inactive")
	}
	if out.Merged.Len() != 12 {
		t.Fatal("pattern merger inactive")
	}
	if out.CommandsIssued != 12 {
		t.Fatal("committer inactive")
	}
	if out.StatusCounts[bridge.StatusOK] == 0 {
		t.Fatal("committee inactive")
	}
	if out.Journal.Len() == 0 {
		t.Fatal("state recording inactive")
	}
}

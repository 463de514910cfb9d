package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/committee"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
)

// digest renders every observable field of an outcome that the
// determinism contract covers: failure class, command count, virtual
// time, step count, coverage, statuses and the merged schedule itself.
// (fmt prints maps in sorted key order, so StatusCounts digests are
// stable.)
func digest(out *Outcome) string {
	kind := "clean"
	if out.Bug != nil {
		kind = string(out.Bug.Kind)
	}
	return fmt.Sprintf("seed=%d bug=%s finished=%v cmds=%d dur=%d steps=%d cov=%v status=%v dups=%d merged=%v",
		out.Seed, kind, out.Finished, out.CommandsIssued, out.Duration,
		out.Steps, out.Coverage, out.StatusCounts, out.DuplicatesRemoved,
		out.Merged.Entries)
}

func digests(outs []*Outcome) []string {
	ds := make([]string, len(outs))
	for i, out := range outs {
		ds[i] = digest(out)
	}
	return ds
}

// TestParallelCampaignDeterminism asserts the engine's core invariant
// for every merger op: a Parallelism=4 campaign produces trial-for-trial
// identical outcomes to the sequential run.
func TestParallelCampaignDeterminism(t *testing.T) {
	for _, op := range pattern.Ops() {
		base := Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 4, S: 10, Op: op, Seed: 7,
			Factory: app.QuicksortFactory(11),
			Kernel:  pcoreGCFault(),
		}
		seq, err := RunCampaign(CampaignConfig{Base: base, Trials: 6, KeepGoing: true})
		if err != nil {
			t.Fatalf("op %v: sequential: %v", op, err)
		}
		par, err := RunCampaign(CampaignConfig{Base: base, Trials: 6, KeepGoing: true, Parallelism: 4})
		if err != nil {
			t.Fatalf("op %v: parallel: %v", op, err)
		}
		if seq.Trials != par.Trials {
			t.Fatalf("op %v: trials %d vs %d", op, seq.Trials, par.Trials)
		}
		ds, dp := digests(seq.Outcomes), digests(par.Outcomes)
		for i := range ds {
			if ds[i] != dp[i] {
				t.Fatalf("op %v trial %d diverged:\nseq: %s\npar: %s", op, i+1, ds[i], dp[i])
			}
		}
		if seq.FirstBugTrial != par.FirstBugTrial || len(seq.Bugs) != len(par.Bugs) ||
			seq.TotalCommands != par.TotalCommands || seq.TotalDuration != par.TotalDuration ||
			seq.CleanFinishes != par.CleanFinishes {
			t.Fatalf("op %v: aggregates diverged: %+v vs %+v", op, seq, par)
		}
	}
}

func pcoreGCFault() pcore.Config {
	return pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}}
}

// TestParallelEarlyCancelMatchesSequential checks the KeepGoing=false
// contract: the parallel campaign stops at the same trial, reports the
// same FirstBugTrial and keeps exactly the prefix a sequential scan
// would have produced — even though later-indexed trials may have run
// speculatively and been discarded.
func TestParallelEarlyCancelMatchesSequential(t *testing.T) {
	newPhilosophers := func() committee.Factory {
		f, _ := app.Philosophers(3, 100000, false)
		return f
	}
	base := Config{
		RE: "TC (TS TR)+ TD$", PD: suspendResumePD(),
		N: 3, S: 41, Op: pattern.OpCyclic, Seed: 0, CommandGap: 100,
		NewFactory: newPhilosophers,
		Kernel:     quantumKernel(),
	}
	seq, err := RunCampaign(CampaignConfig{Base: base, Trials: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCampaign(CampaignConfig{Base: base, Trials: 8, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Bugs) == 0 {
		t.Fatal("scenario found no bug; the early-cancel path is untested")
	}
	if seq.FirstBugTrial != par.FirstBugTrial {
		t.Fatalf("FirstBugTrial %d vs %d", seq.FirstBugTrial, par.FirstBugTrial)
	}
	if seq.Trials != par.Trials || len(seq.Bugs) != len(par.Bugs) {
		t.Fatalf("trials %d/%d bugs %d/%d", seq.Trials, par.Trials, len(seq.Bugs), len(par.Bugs))
	}
	ds, dp := digests(seq.Outcomes), digests(par.Outcomes)
	for i := range ds {
		if ds[i] != dp[i] {
			t.Fatalf("trial %d diverged:\nseq: %s\npar: %s", i+1, ds[i], dp[i])
		}
	}
}

func suspendResumePD() pfa.Distribution {
	return pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TS": 1},
		"TS":           {"TR": 1},
		"TR":           {"TS": 1, "TD": 0},
	}
}

func quantumKernel() pcore.Config {
	return pcore.Config{Quantum: 1 << 30}
}

// TestAdaptiveWindowOneMatchesSequential: the batched-refinement mode
// with Window=1 must reproduce the classic trial-by-trial refinement
// exactly, at any parallelism.
func TestAdaptiveWindowOneMatchesSequential(t *testing.T) {
	base := Config{
		RE: pfa.PCoreRE,
		PD: pfa.Distribution{
			pfa.StartLabel: {"TC": 1},
			"TC":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
			"TCH":          {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
			"TS":           {"TR": 1},
			"TR":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
		},
		N: 3, S: 8, Op: pattern.OpRoundRobin, Seed: 3,
		Factory: app.SpinFactory(),
	}
	seq, err := RunAdaptiveCampaign(AdaptiveCampaignConfig{
		Base: base, Trials: 5, Alpha: 0.8, KeepGoing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAdaptiveCampaign(AdaptiveCampaignConfig{
		Base: base, Trials: 5, Alpha: 0.8, KeepGoing: true, Parallelism: 4, Window: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.TransitionCoverage, par.TransitionCoverage) {
		t.Fatalf("coverage trajectory diverged: %v vs %v", seq.TransitionCoverage, par.TransitionCoverage)
	}
	if !reflect.DeepEqual(seq.FinalPD, par.FinalPD) {
		t.Fatalf("final distribution diverged")
	}
	ds, dp := digests(seq.Outcomes), digests(par.Outcomes)
	for i := range ds {
		if ds[i] != dp[i] {
			t.Fatalf("trial %d diverged:\nseq: %s\npar: %s", i+1, ds[i], dp[i])
		}
	}
}

// TestAdaptiveWindowedBatchRuns sanity-checks the throughput mode: a
// window of 4 refines once per window and still covers every trial.
func TestAdaptiveWindowedBatchRuns(t *testing.T) {
	res, err := RunAdaptiveCampaign(AdaptiveCampaignConfig{
		Base: Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 3, S: 8, Op: pattern.OpRoundRobin, Seed: 5,
			Factory: app.SpinFactory(),
		},
		Trials: 8, Alpha: 0.5, KeepGoing: true, Parallelism: 4, Window: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 8 || len(res.TransitionCoverage) != 8 {
		t.Fatalf("trials %d coverage points %d", res.Trials, len(res.TransitionCoverage))
	}
	if res.FinalPD == nil {
		t.Fatal("no final distribution")
	}
}

// compileOnceRuns counts TestCampaignCompilesPFAOnce runs in this process.
var compileOnceRuns int

// TestCampaignCompilesPFAOnce asserts the compiled-PFA cache: a whole
// campaign — including the per-trial execution half that used to
// recompile — performs exactly one full FromRegex construction for a
// distribution it has never seen.
func TestCampaignCompilesPFAOnce(t *testing.T) {
	// A distribution with probabilities no other test uses, so the cache
	// cannot already hold this key. The cache lives for the process, so
	// each run (-count=N) shifts mass between two symbols to stay unseen.
	compileOnceRuns++
	shift := 1e-6 * float64(compileOnceRuns)
	pd := pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.13571113 + shift, "TS": 0.17192329, "TD": 0.31374143, "TY": 0.37862415 - shift},
		"TCH":          {"TCH": 0.25, "TS": 0.25, "TD": 0.25, "TY": 0.25},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.25, "TS": 0.25, "TD": 0.25, "TY": 0.25},
	}
	before := pfa.CompileCount()
	_, err := RunCampaign(CampaignConfig{
		Base: Config{
			RE: pfa.PCoreRE, PD: pd,
			N: 4, S: 8, Op: pattern.OpRoundRobin, Seed: 2,
			Factory: app.SpinFactory(),
		},
		Trials: 6, KeepGoing: true, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pfa.CompileCount() - before; got != 1 {
		t.Fatalf("campaign performed %d PFA compilations, want 1", got)
	}
}

// TestParallelCampaignRace exercises the worker pool with enough
// concurrently simulated platforms to surface any shared state between
// them (journals, coverage trackers, kernels, bridges). Run with -race.
func TestParallelCampaignRace(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Base: Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 8, S: 12, Op: pattern.OpRandom, Seed: 1,
			Factory: app.QuicksortFactory(42),
			Kernel:  pcoreGCFault(),
		},
		Trials: 8, KeepGoing: true, Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 8 {
		t.Fatalf("ran %d trials", res.Trials)
	}
	// Stateful workload under the per-trial factory builder: fresh forks
	// per platform, no cross-trial sharing.
	res, err = RunCampaign(CampaignConfig{
		Base: Config{
			RE: "TC (TS TR)+ TD$", PD: suspendResumePD(),
			N: 3, S: 21, Op: pattern.OpCyclic, Seed: 1, CommandGap: 100,
			NewFactory: func() committee.Factory {
				f, _ := app.Philosophers(3, 2000, false)
				return f
			},
			Kernel: quantumKernel(),
		},
		Trials: 8, KeepGoing: true, Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 8 {
		t.Fatalf("ran %d trials", res.Trials)
	}
}

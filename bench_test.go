// Package repro_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (and the ablations its
// future-work section calls for). Each benchmark reports, besides wall
// time, the domain metrics the paper's tables would carry as
// b.ReportMetric values: virtual cycles, commands-to-detection and
// discovery rates. README.md's "Measured numbers" and "Simulator hot
// path" sections record the figures these benchmarks produced, and
// perfbench/README.md the end-to-end benchmark that measures the system
// as users run it.
package repro_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/chess"
	"repro/internal/contest"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/ptest"
)

// --- Table I: pCore kernel services ---------------------------------------

// benchService measures one Table I service through the live kernel:
// each iteration performs the service on a fresh victim task, reporting
// the kernel's virtual-cycle cost alongside host time.
func benchService(b *testing.B, svc pcore.Service) {
	k := pcore.New(pcore.Config{})
	defer k.Shutdown()
	spin := func(c *pcore.Ctx) {
		for {
			c.Yield()
		}
	}
	before := k.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch svc {
		case pcore.SvcTaskCreate:
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := k.DeleteTask(id); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		case pcore.SvcTaskDelete:
			b.StopTimer()
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := k.DeleteTask(id); err != nil {
				b.Fatal(err)
			}
		case pcore.SvcTaskSuspend:
			b.StopTimer()
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := k.SuspendTask(id); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			_ = k.ResumeTask(id)
			_ = k.DeleteTask(id)
			b.StartTimer()
		case pcore.SvcTaskResume:
			b.StopTimer()
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			if err := k.SuspendTask(id); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := k.ResumeTask(id); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			_ = k.DeleteTask(id)
			b.StartTimer()
		case pcore.SvcTaskChanprio:
			b.StopTimer()
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := k.ChangePriority(id, pcore.Priority(2+i%20)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			_ = k.DeleteTask(id)
			b.StartTimer()
		case pcore.SvcTaskYield:
			b.StopTimer()
			id, err := k.CreateTask("bench", 5, spin)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := k.TerminateTask(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	calls, cycles := k.ServiceStats()
	if calls[svc] > 0 {
		b.ReportMetric(float64(cycles[svc])/float64(calls[svc]), "vcycles/op")
	}
	_ = before
}

func BenchmarkTableI_TC(b *testing.B)  { benchService(b, pcore.SvcTaskCreate) }
func BenchmarkTableI_TD(b *testing.B)  { benchService(b, pcore.SvcTaskDelete) }
func BenchmarkTableI_TS(b *testing.B)  { benchService(b, pcore.SvcTaskSuspend) }
func BenchmarkTableI_TR(b *testing.B)  { benchService(b, pcore.SvcTaskResume) }
func BenchmarkTableI_TCH(b *testing.B) { benchService(b, pcore.SvcTaskChanprio) }
func BenchmarkTableI_TY(b *testing.B)  { benchService(b, pcore.SvcTaskYield) }

// --- Figure 1: the introductory deadlock scenario --------------------------

// BenchmarkFigure1_DeadlockScenario runs the bad order of Figure 1 to
// livelock detection, reporting virtual cycles to detection.
func BenchmarkFigure1_DeadlockScenario(b *testing.B) {
	var cyclesToDetect float64
	for i := 0; i < b.N; i++ {
		p, err := platform.New(platform.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := app.Figure1(p, true); err != nil {
			b.Fatal(err)
		}
		det := detector.New(p, nil, detector.Options{CheckEvery: 16, ProgressWindow: 50000})
		r := det.Run(5_000_000)
		if r == nil || r.Kind != detector.BugLivelock {
			b.Fatalf("report %v", r)
		}
		cyclesToDetect += float64(r.At)
		p.Shutdown()
	}
	b.ReportMetric(cyclesToDetect/float64(b.N), "vcycles-to-detect")
}

// --- Figure 3: the simple PFA ----------------------------------------------

// BenchmarkFigure3_SimplePFA measures pattern generation on Figure 3's
// automaton and reports the empirical-vs-expected frequency error.
func BenchmarkFigure3_SimplePFA(b *testing.B) {
	machine, err := pfa.Figure3()
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.New(1)
	h := stats.NewHistogram()
	const size = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat, err := machine.Generate(rng, size, pfa.DefaultGenOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range pat.Symbols {
			h.Observe(s)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "symbols/op")
	b.ReportMetric(h.MaxAbsFreqError(machine.ExpectedSymbolFreq(size)), "freq-error")
}

// --- Figure 5: the pCore PFA -------------------------------------------------

// BenchmarkFigure5_PCorePFA measures construction plus generation on the
// paper's equation (2) + Figure 5 distribution.
func BenchmarkFigure5_PCorePFA(b *testing.B) {
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pfa.PCore(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generate", func(b *testing.B) {
		machine, err := pfa.PCore()
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.New(1)
		h := stats.NewHistogram()
		const size = 64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pat, err := machine.Generate(rng, size, pfa.DefaultGenOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range pat.Symbols {
				h.Observe(s)
			}
		}
		b.StopTimer()
		b.ReportMetric(h.MaxAbsFreqError(machine.ExpectedSymbolFreq(size)), "freq-error")
	})
}

// --- Case study 1: the 16-task quicksort stress -------------------------------

// BenchmarkCase1_StressGC runs the full adaptive campaign against the
// GC-leak fault, reporting commands and virtual cycles to detection.
func BenchmarkCase1_StressGC(b *testing.B) {
	var cmds, vt float64
	for i := 0; i < b.N; i++ {
		out, err := core.AdaptiveTest(core.Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 16, S: 24, Op: pattern.OpRoundRobin,
			Seed:    uint64(i),
			Factory: app.QuicksortFactory(99),
			Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug == nil || out.Bug.Kind != detector.BugCrash {
			b.Fatalf("seed %d: bug %v", i, out.Bug)
		}
		cmds += float64(out.CommandsIssued)
		vt += float64(out.Duration)
	}
	b.ReportMetric(cmds/float64(b.N), "cmds-to-crash")
	b.ReportMetric(vt/float64(b.N), "vcycles-to-crash")
}

// BenchmarkCase1_HealthyBaseline is the control: the same stress on a
// healthy kernel completes with no failure.
func BenchmarkCase1_HealthyBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := core.AdaptiveTest(core.Config{
			RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
			N: 16, S: 24, Op: pattern.OpRoundRobin,
			Seed:    uint64(i),
			Factory: app.QuicksortFactory(99),
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil {
			b.Fatalf("seed %d: healthy run found %v", i, out.Bug)
		}
	}
}

// --- Case study 2: the dining philosophers --------------------------------------

func suspendResumeStress() pfa.Distribution {
	return pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TS": 1},
		"TS":           {"TR": 1},
		"TR":           {"TS": 1, "TD": 0},
	}
}

// BenchmarkCase2_DiningDeadlock runs the cyclic-stress discovery of the
// philosophers deadlock, reporting commands to detection.
func BenchmarkCase2_DiningDeadlock(b *testing.B) {
	var cmds float64
	found := 0
	for i := 0; i < b.N; i++ {
		factory, _ := app.Philosophers(3, 100000, false)
		out, err := core.AdaptiveTest(core.Config{
			RE: "TC (TS TR)+ TD$", PD: suspendResumeStress(),
			N: 3, S: 41, Op: pattern.OpCyclic,
			Seed: uint64(i), CommandGap: 100,
			Factory: factory,
			Kernel:  pcore.Config{Quantum: 1 << 30},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugDeadlock {
			found++
			cmds += float64(out.CommandsIssued)
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
	if found > 0 {
		b.ReportMetric(cmds/float64(found), "cmds-to-deadlock")
	}
}

// --- Ablation: merger op comparison ------------------------------------------------

func benchMergerOp(b *testing.B, op pattern.Op) {
	found := 0
	for i := 0; i < b.N; i++ {
		factory, _ := app.Philosophers(3, 100000, false)
		out, err := core.AdaptiveTest(core.Config{
			RE: "TC (TS TR)+ TD$", PD: suspendResumeStress(),
			N: 3, S: 41, Op: op,
			Seed: uint64(i), CommandGap: 100,
			Factory: factory,
			Kernel:  pcore.Config{Quantum: 1 << 30},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugDeadlock {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
}

func BenchmarkAblation_MergerOps_Cyclic(b *testing.B)     { benchMergerOp(b, pattern.OpCyclic) }
func BenchmarkAblation_MergerOps_RoundRobin(b *testing.B) { benchMergerOp(b, pattern.OpRoundRobin) }
func BenchmarkAblation_MergerOps_Random(b *testing.B)     { benchMergerOp(b, pattern.OpRandom) }
func BenchmarkAblation_MergerOps_Sequential(b *testing.B) { benchMergerOp(b, pattern.OpSequential) }

// --- Ablation: distribution sweep ----------------------------------------------------

func benchDistribution(b *testing.B, pd pfa.Distribution) {
	var cmds float64
	found := 0
	for i := 0; i < b.N; i++ {
		out, err := core.AdaptiveTest(core.Config{
			RE: pfa.PCoreRE, PD: pd,
			N: 12, S: 16, Op: pattern.OpRoundRobin,
			Seed:    uint64(i),
			Factory: app.QuicksortFactory(3),
			Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugCrash {
			found++
			cmds += float64(out.CommandsIssued)
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
	if found > 0 {
		b.ReportMetric(cmds/float64(found), "cmds-to-crash")
	}
}

func BenchmarkAblation_Distribution_Figure5(b *testing.B) {
	benchDistribution(b, pfa.PCoreDistribution())
}

func BenchmarkAblation_Distribution_Uniform(b *testing.B) {
	benchDistribution(b, nil)
}

func BenchmarkAblation_Distribution_ChurnHeavy(b *testing.B) {
	benchDistribution(b, pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.05, "TS": 0.05, "TD": 0.6, "TY": 0.3},
		"TCH":          {"TCH": 0.1, "TS": 0.1, "TD": 0.5, "TY": 0.3},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.1, "TS": 0.1, "TD": 0.5, "TY": 0.3},
	})
}

func BenchmarkAblation_Distribution_ChanprioSkewed(b *testing.B) {
	benchDistribution(b, pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.94, "TS": 0.02, "TD": 0.02, "TY": 0.02},
		"TCH":          {"TCH": 0.94, "TS": 0.02, "TD": 0.02, "TY": 0.02},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.94, "TS": 0.02, "TD": 0.02, "TY": 0.02},
	})
}

// --- Ablation: replicated patterns ---------------------------------------------------

// BenchmarkAblation_PatternDedup measures the duplicate rate of raw
// generation at several pattern sizes (the paper's future-work worry)
// and the cost of the dedup that fixes it.
func BenchmarkAblation_PatternDedup(b *testing.B) {
	machine, err := pfa.PCore()
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{2, 4, 8, 16} {
		b.Run(map[int]string{2: "s2", 4: "s4", 8: "s8", 16: "s16"}[size], func(b *testing.B) {
			rng := stats.New(1)
			dups := 0
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pats, err := machine.GenerateSet(rng, 16, size, pfa.DefaultGenOptions())
				if err != nil {
					b.Fatal(err)
				}
				sources := make([][]string, len(pats))
				for j, p := range pats {
					sources[j] = p.Symbols
				}
				_, removed := pattern.Dedup(sources)
				dups += removed
				total += len(pats)
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(float64(dups)/float64(total), "dup-rate")
			}
		})
	}
}

// --- Ablation: fault-coverage matrix ---------------------------------------------------

// BenchmarkAblation_FaultMatrix measures pTest's detection of each
// seeded fault class (the paper's unverified "fault coverage").
func BenchmarkAblation_FaultMatrix(b *testing.B) {
	type row struct {
		name string
		cfg  func(seed uint64) core.Config
		want detector.BugKind
	}
	rows := []row{
		{"gc-leak", func(seed uint64) core.Config {
			return core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				N: 12, S: 16, Op: pattern.OpRoundRobin, Seed: seed,
				Factory: app.QuicksortFactory(3),
				Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
			}
		}, detector.BugCrash},
		{"stack-overflow", func(seed uint64) core.Config {
			return core.Config{
				RE: "TC TD$", N: 1, S: 1, Op: pattern.OpSequential, Seed: seed,
				Factory: app.UnboundedQuicksortFactory(),
			}
		}, detector.BugCrash},
		{"deadlock", func(seed uint64) core.Config {
			factory, _ := app.Philosophers(3, 100000, false)
			return core.Config{
				RE: "TC (TS TR)+ TD$", PD: suspendResumeStress(),
				N: 3, S: 41, Op: pattern.OpCyclic, Seed: seed, CommandGap: 100,
				Factory: factory,
				Kernel:  pcore.Config{Quantum: 1 << 30},
			}
		}, detector.BugDeadlock},
		{"lost-resume", func(seed uint64) core.Config {
			return core.Config{
				RE: "TC (TS TR)+ TD$", PD: suspendResumeStress(),
				N: 2, S: 21, Op: pattern.OpRoundRobin, Seed: seed,
				Factory: app.SpinFactory(),
				Kernel:  pcore.Config{Faults: pcore.FaultPlan{DropResumeEvery: 3}},
			}
		}, detector.BugHang},
		{"priority-inversion", func(seed uint64) core.Config {
			return core.Config{
				RE: "TC TD$", N: 3, S: 1, Op: pattern.OpSequential, Seed: seed,
				Factory:  app.PriorityInversion(100000),
				Detector: detector.Options{ProgressWindow: 50000},
			}
		}, detector.BugStarvation},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				out, err := core.AdaptiveTest(r.cfg(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if out.Bug != nil && out.Bug.Kind == r.want {
					found++
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "detection-rate")
		})
	}
}

// --- Ablation: stress density (command gap) --------------------------------------------

// benchStressDensity measures philosophers-deadlock discovery as a
// function of the inter-command gap: too dense and the slave never runs
// between perturbations, too sparse and perturbations decorrelate.
func benchStressDensity(b *testing.B, gap int) {
	found := 0
	for i := 0; i < b.N; i++ {
		factory, _ := app.Philosophers(3, 100000, false)
		out, err := core.AdaptiveTest(core.Config{
			RE: "TC (TS TR)+ TD$", PD: suspendResumeStress(),
			N: 3, S: 41, Op: pattern.OpCyclic,
			Seed: uint64(i), CommandGap: gap,
			Factory: factory,
			Kernel:  pcore.Config{Quantum: 1 << 30},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugDeadlock {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
}

func BenchmarkAblation_StressDensity_Gap10(b *testing.B)   { benchStressDensity(b, 10) }
func BenchmarkAblation_StressDensity_Gap100(b *testing.B)  { benchStressDensity(b, 100) }
func BenchmarkAblation_StressDensity_Gap400(b *testing.B)  { benchStressDensity(b, 400) }
func BenchmarkAblation_StressDensity_Gap1500(b *testing.B) { benchStressDensity(b, 1500) }

// --- Ablation: coverage-guided refinement ------------------------------------------------

// BenchmarkAblation_Refinement compares the coverage reached from a
// skewed starting distribution with and without between-trial
// refinement.
func BenchmarkAblation_Refinement(b *testing.B) {
	skewed := pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.997, "TS": 0.001, "TD": 0.001, "TY": 0.001},
		"TCH":          {"TCH": 0.997, "TS": 0.001, "TD": 0.001, "TY": 0.001},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.997, "TS": 0.001, "TD": 0.001, "TY": 0.001},
	}
	for _, mode := range []struct {
		name  string
		alpha float64
	}{{"adaptive", 0.8}, {"fixed", core.NoRefinement}} {
		b.Run(mode.name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunAdaptiveCampaign(core.AdaptiveCampaignConfig{
					Base: core.Config{
						RE: pfa.PCoreRE, PD: skewed,
						N: 4, S: 10, Op: pattern.OpRoundRobin, Seed: uint64(3 + i),
						Factory: app.SpinFactory(),
					},
					Trials: 8, Alpha: mode.alpha, KeepGoing: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				cov += res.TransitionCoverage[len(res.TransitionCoverage)-1]
			}
			b.ReportMetric(cov/float64(b.N), "final-transition-cov")
		})
	}
}

// --- Baselines ----------------------------------------------------------------------------

// BenchmarkBaseline_ContestPhilosophers measures the noise-injection
// baseline on the philosophers deadlock.
func BenchmarkBaseline_ContestPhilosophers(b *testing.B) {
	found := 0
	for i := 0; i < b.N; i++ {
		factory, _ := app.Philosophers(3, 2000, false)
		out, err := contest.Run(contest.Config{
			Seed: uint64(i), NoiseP: 0.3, Tasks: 3, Factory: factory,
			Kernel: pcore.Config{Quantum: 1 << 30},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugDeadlock {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
}

// BenchmarkBaseline_ContestGCFault shows the baseline's blind spot: no
// create/delete churn, so the GC fault stays hidden.
func BenchmarkBaseline_ContestGCFault(b *testing.B) {
	found := 0
	for i := 0; i < b.N; i++ {
		out, err := contest.Run(contest.Config{
			Seed: uint64(i), NoiseP: 0.3, Tasks: 8,
			Factory: app.QuicksortFactory(3),
			Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Bug != nil && out.Bug.Kind == detector.BugCrash {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
}

// BenchmarkBaseline_ChessOrphanLock measures the systematic explorer on
// the delete-under-stress schedule space of two philosophers. This is a
// documented negative result: the orphaned-lock window is a property of
// continuous timing, invisible to command-order enumeration — expect a
// discovery rate of 0 over the exhausted bound-2 space (contrast with
// pTest's randomized merger, which finds the anomaly; see Case 2).
func BenchmarkBaseline_ChessOrphanLock(b *testing.B) {
	var schedules float64
	found := 0
	for i := 0; i < b.N; i++ {
		factory, _ := app.Philosophers(2, 100000, false)
		res, err := chess.Explore(chess.Config{
			Run: core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				Factory:    factory,
				Kernel:     pcore.Config{Quantum: 1 << 30},
				CommandGap: 100,
			},
			Sources: [][]string{
				{"TC", "TS", "TR", "TD"},
				{"TC", "TS", "TR", "TD"},
			},
			PreemptionBound: 2,
			ExploreAll:      true,
		})
		if err != nil {
			b.Fatal(err)
		}
		schedules += float64(res.Schedules)
		if len(res.Bugs) > 0 {
			found++
		}
	}
	b.ReportMetric(schedules/float64(b.N), "schedules")
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
}

// BenchmarkBaseline_ChessLostResume is the complementary positive case:
// the lost-resume fault triggers on the third task_resume executed — an
// order property — so systematic exploration finds it deterministically
// on the first schedule.
func BenchmarkBaseline_ChessLostResume(b *testing.B) {
	var firstAt float64
	found := 0
	for i := 0; i < b.N; i++ {
		res, err := chess.Explore(chess.Config{
			Run: core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				Factory: app.SpinFactory(),
				Kernel:  pcore.Config{Faults: pcore.FaultPlan{DropResumeEvery: 3}},
			},
			Sources: [][]string{
				{"TC", "TS", "TR", "TS", "TR"},
				{"TC", "TS", "TR"},
			},
			PreemptionBound: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bugs) > 0 {
			found++
			firstAt += float64(res.FirstBugAt)
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "discovery-rate")
	if found > 0 {
		b.ReportMetric(firstAt/float64(found), "schedules-to-bug")
	}
}

// --- Campaign engine: sharded trial execution ------------------------------------------------

// benchCampaign measures the 32-trial quicksort-stress campaign at a
// given parallelism. Trials are independent and deterministic in
// (Config, Seed), so every row below computes the identical result —
// the wall-clock ratio between rows is pure engine speedup.
func benchCampaign(b *testing.B, parallelism int) {
	var cmds float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCampaign(core.CampaignConfig{
			Base: core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				N: 16, S: 24, Op: pattern.OpRoundRobin, Seed: 1,
				Factory: app.QuicksortFactory(99),
			},
			Trials: 32, KeepGoing: true, Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Trials != 32 {
			b.Fatalf("ran %d trials", res.Trials)
		}
		cmds += float64(res.TotalCommands)
	}
	b.ReportMetric(cmds/float64(b.N), "cmds/op")
	if d := b.Elapsed().Seconds(); d > 0 {
		b.ReportMetric(32*float64(b.N)/d, "trials/s")
	}
}

func BenchmarkCampaign_Sequential(b *testing.B) { benchCampaign(b, 1) }
func BenchmarkCampaign_Parallel2(b *testing.B)  { benchCampaign(b, 2) }
func BenchmarkCampaign_Parallel4(b *testing.B)  { benchCampaign(b, 4) }
func BenchmarkCampaign_Parallel8(b *testing.B)  { benchCampaign(b, 8) }

// BenchmarkCampaign_PFACache isolates the compiled-PFA cache: a full
// Glushkov construction per call versus the memoized lookup the
// campaign hot path now performs.
func BenchmarkCampaign_PFACache(b *testing.B) {
	pd := pfa.PCoreDistribution()
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pfa.FromRegex(pfa.PCoreRE, pd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := pfa.Compile(pfa.PCoreRE, pd); err != nil {
			b.Fatal(err) // warm the entry
		}
		before := pfa.CompileCount()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pfa.Compile(pfa.PCoreRE, pd); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if pfa.CompileCount() != before {
			b.Fatal("cache missed")
		}
	})
}

// --- End-to-end throughput -------------------------------------------------------------------

// BenchmarkEndToEnd_CommandThroughput measures raw remote-command
// throughput of the platform (bridge + committee + kernel) under a
// benign pattern — the substrate cost every experiment above pays.
func BenchmarkEndToEnd_CommandThroughput(b *testing.B) {
	var cmds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ptest.Run(ptest.Config{
			RE: ptest.PCoreRE, PD: ptest.PCoreDistribution(),
			N: 8, S: 16, Op: ptest.OpRoundRobin, Seed: uint64(i),
			Factory: ptest.SpinFactory(),
		})
		if err != nil {
			b.Fatal(err)
		}
		cmds += float64(out.CommandsIssued)
	}
	b.StopTimer()
	b.ReportMetric(cmds/float64(b.N), "cmds/op")
}

// Package core implements pTest's adaptive testing procedure — the
// paper's Algorithm 1. AdaptiveTest generates n test patterns of size s
// from the PFA of the user's service regular expression, merges them
// into one interleaved pattern with the op strategy, and executes the
// result against the co-simulated master–slave platform while the bug
// detector monitors progress. Campaigns repeat the procedure across
// seeds until a failure is found or the budget is spent.
package core

import (
	"fmt"

	"repro/internal/bridge"
	"repro/internal/clock"
	"repro/internal/committee"
	"repro/internal/committer"
	"repro/internal/coverage"
	"repro/internal/detector"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/platform"
	"repro/internal/recording"
	"repro/internal/report"
	"repro/internal/stats"
)

// Config is the full configuration of one adaptive test run: the paper's
// (RE, n, s, op) plus the simulated platform's knobs.
type Config struct {
	// RE is the service regular expression (the paper's RE input).
	RE string
	// PD is the probability distribution attached to the PFA; nil means
	// uniform over legal transitions.
	PD pfa.Distribution
	// N is the number of test patterns to generate — one per logical
	// slave task (Algorithm 1's n).
	N int
	// S is the size of each test pattern (Algorithm 1's s).
	S int
	// Op selects the pattern-merger strategy (Algorithm 1's op).
	Op pattern.Op
	// Seed drives every random choice; a run is reproducible from
	// (Config, Seed) alone.
	Seed uint64
	// Dedup discards replicated patterns before merging (the paper's
	// future-work item on replicated test patterns).
	Dedup bool

	// Gen tunes Algorithm 2's pattern generation (zero value: restart on
	// final dead ends).
	Gen pfa.GenOptions
	// Merge tunes the merger.
	Merge pattern.Options
	// Policy picks priorities for TC/TCH commands; nil uses the default.
	Policy committer.PriorityPolicy

	// CommandGap is the master-side delay (cycles) between consecutive
	// remote commands — the stress density knob (default 10; larger
	// values let slave tasks run further between perturbations).
	CommandGap int

	// Kernel configures the simulated slave (including fault injection).
	Kernel pcore.Config
	// HW configures the simulated SoC.
	HW hw.Config
	// Factory supplies the slave workload bodies; nil uses idle spinners.
	Factory committee.Factory
	// NewFactory, when set, builds a fresh Factory per trial and takes
	// precedence over Factory. Workloads whose factory closes over
	// mutable state (philosopher forks, producer/consumer buffers) must
	// use it for parallel campaigns — and benefit sequentially too, since
	// a fresh factory keeps trials independent of each other.
	NewFactory func() committee.Factory

	// MaxSteps bounds the co-simulation (default 2_000_000 steps).
	MaxSteps int
	// Detector tunes failure detection.
	Detector detector.Options
	// JournalLimit bounds the state-record journal (default 4096).
	JournalLimit int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1
	}
	if c.S <= 0 {
		c.S = 8
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 2_000_000
	}
	if c.JournalLimit == 0 {
		c.JournalLimit = 4096
	}
	if c.Gen == (pfa.GenOptions{}) {
		c.Gen = pfa.DefaultGenOptions()
	}
	return c
}

// Outcome is the result of one adaptive test run.
type Outcome struct {
	// Bug is the detected failure, or nil for a clean run.
	Bug *detector.Report
	// Finished reports whether the committer issued the whole pattern.
	Finished bool
	// CommandsIssued counts completed remote commands.
	CommandsIssued int
	// StatusCounts aggregates reply statuses.
	StatusCounts map[bridge.Status]int
	// Coverage summarizes service/transition/interleaving coverage.
	Coverage coverage.Summary
	// Patterns are the generated per-task patterns (T of Algorithm 1).
	Patterns []pfa.Pattern
	// Merged is the final interleaved pattern (M of Algorithm 1).
	Merged pattern.Merged
	// DuplicatesRemoved counts patterns discarded by Dedup.
	DuplicatesRemoved int
	// Journal holds the Definition 2 state records.
	Journal *recording.Journal
	// Duration is the virtual time the run consumed.
	Duration clock.Cycles
	// Steps is the number of co-simulation steps.
	Steps uint64
	// Seed echoes the run's seed for reproduction.
	Seed uint64
}

// AdaptiveTest runs Algorithm 1 once. Structure mirrors the paper's
// pseudocode: PatternGenerator n times, PatternMerger, then the bug
// detector monitoring the committer's execution. (The paper forks the
// detector as a child process; the deterministic co-simulation runs its
// checks interleaved with the platform instead — same observability,
// reproducible schedule.)
func AdaptiveTest(cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	machine, err := pfa.Compile(cfg.RE, cfg.PD)
	if err != nil {
		return nil, fmt.Errorf("core: building PFA: %w", err)
	}
	return adaptiveTest(cfg, machine)
}

// adaptiveTest is AdaptiveTest against an already-compiled machine —
// the campaign engines compile once and run every trial through here.
// cfg must already carry defaults.
func adaptiveTest(cfg Config, machine *pfa.PFA) (*Outcome, error) {
	rng := stats.New(cfg.Seed)

	// T[i] ← PatternGenerator(RE, PD, s), for i in 1..n.
	genRNG := rng.Split()
	var pats []pfa.Pattern
	var err error
	dups := 0
	if cfg.Dedup {
		pats, dups, err = machine.GenerateUnique(genRNG, cfg.N, cfg.S, cfg.Gen, 0)
	} else {
		pats, err = machine.GenerateSet(genRNG, cfg.N, cfg.S, cfg.Gen)
	}
	if err != nil {
		return nil, fmt.Errorf("core: generating patterns: %w", err)
	}

	// M ← PatternMerger(T, n, op).
	sources := make([][]string, len(pats))
	for i, p := range pats {
		sources[i] = p.Symbols
	}
	merged, err := pattern.Merge(sources, cfg.Op, rng.Split(), cfg.Merge)
	if err != nil {
		return nil, fmt.Errorf("core: merging patterns: %w", err)
	}

	out, err := runMerged(cfg, machine, sources, merged)
	if err != nil {
		return nil, err
	}
	out.Patterns = pats
	out.DuplicatesRemoved = dups
	return out, nil
}

// RunMerged executes an explicit merged pattern against a fresh platform
// under the bug detector — the execution half of Algorithm 1. The
// CHESS-style baseline uses it to run systematically enumerated
// schedules; AdaptiveTest uses it after generating and merging patterns.
// Pattern- and merge-related Config fields (RE aside, which is still
// used for coverage metrics) are ignored.
func RunMerged(cfg Config, merged pattern.Merged) (*Outcome, error) {
	cfg = cfg.withDefaults()
	machine, err := pfa.Compile(cfg.RE, cfg.PD)
	if err != nil {
		return nil, fmt.Errorf("core: building PFA: %w", err)
	}
	return runMerged(cfg, machine, merged.PerTask(), merged)
}

// RunMergedWith is RunMerged against an already-compiled machine and
// the per-task sequences merged interleaves, as merged.PerTask() would
// return them — the batch path for systematic explorers that execute
// many schedules of one set of sequences under one (RE, PD), and should
// neither re-resolve the cache nor split the pattern per schedule.
func RunMergedWith(cfg Config, machine *pfa.PFA, perTask [][]string, merged pattern.Merged) (*Outcome, error) {
	return runMerged(cfg.withDefaults(), machine, perTask, merged)
}

// runMerged is the execution half against an already-compiled machine;
// perTask is merged split by logical task. cfg must already carry
// defaults.
func runMerged(cfg Config, machine *pfa.PFA, perTask [][]string, merged pattern.Merged) (*Outcome, error) {
	factory := cfg.Factory
	if cfg.NewFactory != nil {
		factory = cfg.NewFactory()
	}
	plat, err := platform.New(platform.Config{
		HW: cfg.HW, Kernel: cfg.Kernel, Factory: factory,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building platform: %w", err)
	}
	defer plat.Shutdown()

	journal := recording.NewJournal(cfg.JournalLimit)
	cmt := committer.New(plat.Client, merged, perTask, cfg.Policy, journal, plat.Now)
	if cfg.CommandGap > 0 {
		cmt.Gap = cfg.CommandGap
	}
	plat.Master.Spawn("committer", cmt.ThreadBody)
	det := detector.New(plat, journal, cfg.Detector)

	// Run until a bug, quiescence, or — for workloads that never quiesce,
	// like control-loop tasks — a settle window after the committer has
	// issued the whole pattern.
	settle := 0
	bug := det.RunUntil(cfg.MaxSteps, func() bool {
		if !cmt.Finished {
			return false
		}
		settle++
		return settle > 64 // 64 check intervals of residual activity
	})

	// Assemble the outcome.
	track := coverage.GetTracker()
	defer coverage.PutTracker(track)
	issued := cmt.Progress()
	for _, e := range merged.Entries[:issued] {
		track.Observe(e.Task, e.Symbol)
	}
	out := &Outcome{
		Bug:            bug,
		Finished:       cmt.Finished,
		CommandsIssued: issued,
		StatusCounts:   cmt.StatusCounts(),
		Coverage:       track.Summarize(machine),
		Merged:         merged,
		Journal:        journal,
		Duration:       plat.Now(),
		Steps:          plat.Steps(),
		Seed:           cfg.Seed,
	}
	return out, nil
}

// CampaignConfig repeats AdaptiveTest over consecutive seeds.
type CampaignConfig struct {
	Base Config
	// Trials is the number of runs (default 10).
	Trials int
	// StopOnBug ends the campaign at the first failure (default true
	// via the Run helper; set KeepGoing to scan all trials).
	KeepGoing bool
	// Parallelism shards trials across a worker pool: 0 or 1 runs
	// sequentially, a negative value uses one worker per CPU. Every
	// trial is deterministic in (Base, Base.Seed+index), so the result
	// is bit-identical to the sequential campaign at any setting —
	// including FirstBugTrial under early cancellation. Workloads with
	// stateful factories must set Base.NewFactory.
	Parallelism int
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Trials        int
	Bugs          []*detector.Report
	FirstBugTrial int // 1-based; 0 when no bug found
	TotalCommands int
	TotalDuration clock.Cycles
	CleanFinishes int
	Outcomes      []*Outcome
}

// BugRate returns the fraction of trials that found a failure.
func (r *CampaignResult) BugRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(len(r.Bugs)) / float64(r.Trials)
}

// Summary reduces the campaign to the tool-agnostic machine-readable
// struct suite reports aggregate — the struct counterpart of the
// ptest-run console output. Coverage fields are the mean over trial
// outcomes (pairs: the max any trial observed).
func (r *CampaignResult) Summary() report.CampaignSummary {
	s := report.CampaignSummary{
		Trials:        r.Trials,
		Bugs:          len(r.Bugs),
		BugRate:       r.BugRate(),
		FirstBugTrial: r.FirstBugTrial,
		CleanFinishes: r.CleanFinishes,
		TotalCommands: r.TotalCommands,
		TotalCycles:   uint64(r.TotalDuration),
	}
	if len(r.Bugs) > 0 {
		s.FirstBug = r.Bugs[0].String()
	}
	for _, out := range r.Outcomes {
		s.ServiceCoverage += out.Coverage.Services
		s.TransitionCoverage += out.Coverage.Transitions
		if out.Coverage.Pairs > s.InterleavingPairs {
			s.InterleavingPairs = out.Coverage.Pairs
		}
	}
	if len(r.Outcomes) > 0 {
		s.ServiceCoverage /= float64(len(r.Outcomes))
		s.TransitionCoverage /= float64(len(r.Outcomes))
	}
	return s
}

// RunCampaign executes the trials, varying the seed per trial
// (base.Seed + trial index). Trials are sharded across
// CampaignConfig.Parallelism workers; the PFA compiles once for the
// whole campaign.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	base := cfg.Base.withDefaults()
	machine, err := pfa.Compile(base.RE, base.PD)
	if err != nil {
		return &CampaignResult{}, fmt.Errorf("core: building PFA: %w", err)
	}
	outs, runErr := engine.Run(cfg.Trials, cfg.Parallelism,
		func(i int) (*Outcome, error) {
			run := base
			run.Seed = base.Seed + uint64(i)
			out, err := adaptiveTest(run, machine)
			if err != nil {
				return nil, fmt.Errorf("core: trial %d: %w", i+1, err)
			}
			return out, nil
		},
		func(out *Outcome) bool { return !cfg.KeepGoing && out.Bug != nil })
	return foldCampaign(outs), runErr
}

// foldCampaign aggregates in-order trial outcomes into a result —
// shared by the plain and adaptive campaigns so sequential and parallel
// runs aggregate identically.
func foldCampaign(outs []*Outcome) *CampaignResult {
	res := &CampaignResult{}
	for i, out := range outs {
		res.Trials++
		res.Outcomes = append(res.Outcomes, out)
		res.TotalCommands += out.CommandsIssued
		res.TotalDuration += out.Duration
		if out.Bug != nil {
			res.Bugs = append(res.Bugs, out.Bug)
			if res.FirstBugTrial == 0 {
				res.FirstBugTrial = i + 1
			}
		} else if out.Finished {
			res.CleanFinishes++
		}
	}
	return res
}

// Package chess implements the CHESS-style baseline the paper compares
// against: stateless systematic exploration with preemption bounding.
// Where pTest samples interleavings probabilistically, this explorer
// enumerates every interleaving of the per-task command patterns whose
// preemption count stays within a bound, executing each schedule on a
// fresh deterministic platform. Coverage is exhaustive within the bound;
// cost grows combinatorially — exactly the trade-off the paper's
// introduction describes ("model checking is not efficient when
// searching infinite state spaces").
package chess

import (
	"fmt"
	"iter"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/pfa"
	"repro/internal/report"
	"repro/internal/stats"
)

// Config sets one exploration.
type Config struct {
	// Run is the per-schedule execution configuration (workload, kernel,
	// detector, RE/PD for coverage metrics). Its Op/Seed/merge fields are
	// ignored — the explorer supplies each schedule explicitly.
	Run core.Config
	// Sources are the per-task command patterns to interleave. When nil,
	// they are generated from Run.RE/Run.PD with Run.N patterns of size
	// Run.S using Run.Seed (the same pattern generator as pTest, so the
	// comparison isolates the scheduling strategy).
	Sources [][]string
	// PreemptionBound is CHESS's bound c: the maximum number of switches
	// away from a task that still has commands pending. Negative means
	// unbounded enumeration.
	PreemptionBound int
	// MaxSchedules caps the number of schedules executed (0 = no cap).
	MaxSchedules int
	// StopAtFirstBug ends exploration at the first failure (default on;
	// set ExploreAll to scan the whole space).
	ExploreAll bool
	// Parallelism shards schedule execution across a worker pool (0/1
	// sequential, negative = one worker per CPU). Schedules execute on
	// independent platforms in enumeration order, so Schedules, Bugs and
	// FirstBugAt are identical to the sequential exploration.
	Parallelism int
}

// Result aggregates an exploration.
type Result struct {
	Schedules      int // schedules executed
	SpaceExhausted bool
	Bugs           []*detector.Report
	FirstBugAt     int // 1-based schedule index, 0 if none
	TotalDuration  clock.Cycles
	TotalCommands  int
}

// Explore runs the systematic exploration. Schedules are pulled from
// the enumerator in chunks and executed across Config.Parallelism
// workers — each on its own fresh platform — with results folded in
// enumeration order, so every aggregate matches the sequential scan.
func Explore(cfg Config) (*Result, error) {
	// One compiled machine serves pattern generation and every schedule
	// execution; re-resolving the cache per schedule would serialize the
	// workers on its mutex.
	machine, err := pfa.Compile(cfg.Run.RE, cfg.Run.PD)
	if err != nil {
		return nil, fmt.Errorf("chess: %w", err)
	}
	sources := cfg.Sources
	if sources == nil {
		rng := stats.New(cfg.Run.Seed)
		n := cfg.Run.N
		if n <= 0 {
			n = 1
		}
		s := cfg.Run.S
		if s <= 0 {
			s = 8
		}
		pats, err := machine.GenerateSet(rng, n, s, pfa.DefaultGenOptions())
		if err != nil {
			return nil, fmt.Errorf("chess: %w", err)
		}
		sources = make([][]string, len(pats))
		for i, p := range pats {
			sources[i] = p.Symbols
		}
	}

	next, stopEnum := iter.Pull(iter.Seq[pattern.Merged](func(yield func(pattern.Merged) bool) {
		pattern.EnumerateInterleavings(sources, cfg.PreemptionBound, yield)
	}))
	defer stopEnum()

	res := &Result{}
	workers := engine.Normalize(cfg.Parallelism)
	// Chunked lookahead: big enough to keep the pool busy, small enough
	// that early cancellation wastes little work on a found bug. A lone
	// worker pulls one schedule at a time — exactly the lazy sequential
	// enumeration, with nothing materialized past the stopping point.
	chunkSize := 32 * workers
	if workers == 1 {
		chunkSize = 1
	}
	enumDone := false
	stopped := false
	capped := false
	enumerated := 0
	batch := make([]pattern.Merged, 0, chunkSize)

	for !stopped && !enumDone {
		batch = batch[:0]
		for len(batch) < chunkSize {
			if cfg.MaxSchedules > 0 && res.Schedules+len(batch) >= cfg.MaxSchedules {
				stopped, capped = true, true // cap reached; the space may or may not continue
				break
			}
			m, ok := next()
			if !ok {
				enumDone = true
				break
			}
			enumerated++
			batch = append(batch, m)
		}
		if len(batch) == 0 {
			break
		}
		outs, runErr := engine.Run(len(batch), cfg.Parallelism,
			func(i int) (*core.Outcome, error) { return core.RunMergedWith(cfg.Run, machine, sources, batch[i]) },
			func(out *core.Outcome) bool { return !cfg.ExploreAll && out.Bug != nil })
		executed := len(outs)
		for _, out := range outs {
			res.Schedules++
			res.TotalDuration += out.Duration
			res.TotalCommands += out.CommandsIssued
			if out.Bug != nil {
				res.Bugs = append(res.Bugs, out.Bug)
				if res.FirstBugAt == 0 {
					res.FirstBugAt = res.Schedules
				}
				if !cfg.ExploreAll {
					stopped = true
				}
			}
		}
		if runErr != nil {
			return res, runErr
		}
		if executed < len(batch) {
			stopped = true // early-cancelled inside the chunk
		}
	}
	// Exhausted means the full bounded space was enumerated and every
	// schedule in it executed — a bug on the space's final schedule
	// still counts, a cap or a mid-space stop does not. When a bug
	// stopped a fully-executed batch that happened to end exactly on a
	// chunk boundary, probe the enumerator once so the answer does not
	// depend on chunk alignment (and hence on Parallelism).
	if !enumDone && !capped && res.Schedules == enumerated {
		if _, ok := next(); !ok {
			enumDone = true
		}
	}
	res.SpaceExhausted = enumDone && !capped && res.Schedules == enumerated
	return res, nil
}

// BugRate returns the fraction of executed schedules that failed.
func (r *Result) BugRate() float64 {
	if r.Schedules == 0 {
		return 0
	}
	return float64(len(r.Bugs)) / float64(r.Schedules)
}

// Summary reduces the exploration to the tool-agnostic machine-readable
// struct suite reports aggregate: schedules map onto trials, FirstBugAt
// onto the first-bug trial.
func (r *Result) Summary() report.CampaignSummary {
	s := report.CampaignSummary{
		Trials:         r.Schedules,
		Bugs:           len(r.Bugs),
		BugRate:        r.BugRate(),
		FirstBugTrial:  r.FirstBugAt,
		TotalCommands:  r.TotalCommands,
		TotalCycles:    uint64(r.TotalDuration),
		SpaceExhausted: r.SpaceExhausted,
	}
	if len(r.Bugs) > 0 {
		s.FirstBug = r.Bugs[0].String()
	}
	return s
}

// ScheduleSpace returns the size of the schedule space for the sources
// under the preemption bound without executing anything — the cost the
// explorer commits to.
func ScheduleSpace(sources [][]string, preemptionBound int) int {
	return pattern.CountInterleavings(sources, preemptionBound)
}

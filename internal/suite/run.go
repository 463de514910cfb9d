// Suite execution: store hits are resolved first, the cells that miss
// shard across the campaign engine's worker pool, trials run parallel
// within a cell, and results stream to JSONL in plan order while the
// aggregated report accumulates. Every cell is
// deterministic in (spec, cell ID), so the canonical report is
// byte-identical across reruns at any parallelism. Tool dispatch is
// entirely the internal/tool registry's: runCell resolves the cell's
// tool, hands it the resolved execution environment, and records the
// summary — no per-tool branching anywhere in this package.
package suite

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/pfa"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/tool"
)

// ErrInterrupted is returned (wrapped) by RunContext when its context
// is cancelled mid-sweep. The accompanying report is still valid: a
// plan-order prefix of the matrix, marked Interrupted, with the JSONL
// stream flushed to exactly the same prefix.
var ErrInterrupted = errors.New("suite: interrupted")

// CellExec is a pluggable per-cell executor: given the resolved spec
// and one expanded cell, produce the completed report cell. The
// dispatch layer implements it to lease cells out to a worker fleet;
// the default executes in-process via ExecuteCell. Implementations
// must be deterministic in (spec, cell) — the per-cell seed already is
// — so where a cell runs can never change what it reports.
type CellExec func(ctx context.Context, spec *Spec, c Cell) (report.Cell, error)

// Options tunes a run beyond the spec itself.
type Options struct {
	// Store is the content-addressed result store: each cell is looked
	// up by its CellKey before executing and stored after. Nil disables
	// memoization. Any CellStore implementation slots in — the local
	// segment-log store (a hub job runs over the hub's) or a caller's
	// own.
	Store store.CellStore
	// Exec overrides how a cell that missed the store executes. Nil runs
	// it in-process. The store check, the put of the computed result and
	// the plan-order stream all stay on the caller's side, so an Exec
	// that farms cells out to a fleet inherits memoization and ordering
	// unchanged.
	Exec CellExec
	// Events receives per-cell lifecycle events (start/cached/executed/
	// failed), pre-scoped to the owning job and tenant by the caller. The
	// zero value emits nothing — the cell results and the report are
	// byte-identical either way.
	Events eventlog.Scoped
}

// Run expands the spec and executes every cell. When jsonl is non-nil,
// each completed cell is appended to it as one JSON line, in plan order
// regardless of which worker finishes first. The returned report's
// cells are likewise in plan order. The spec is defaulted and validated
// here too, so hand-built specs (the ptest.RunSuite facade path) get
// the same checks as parsed ones.
func Run(spec *Spec, jsonl io.Writer) (*report.Report, error) {
	return RunContext(context.Background(), spec, jsonl, Options{})
}

// RunContext is Run with cancellation and a result store. Cancelling
// ctx stops the sweep at the next cell boundary (trials inside a
// running cell finish); the partial plan-order prefix comes back as an
// Interrupted report together with ErrInterrupted, so callers can
// persist what was computed instead of dying mid-write.
func RunContext(ctx context.Context, spec *Spec, jsonl io.Writer, opts Options) (*report.Report, error) {
	p, err := NewPlan(spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, jsonl, opts)
}

// Run executes the plan as RunContext executes a spec. With a store,
// every cell is looked up first, in plan order on the calling
// goroutine, and only the misses go to the engine's workers: a job
// whose every cell is stored runs in one pass, with no fan-out.
func (p *Plan) Run(ctx context.Context, jsonl io.Writer, opts Options) (*report.Report, error) {
	spec, cells := p.spec, p.cells
	start := time.Now()
	compilesBefore := pfa.CompileCount()
	var keys []string
	if opts.Store != nil {
		keys = p.Keys()
	}
	set := newSettler(ctx, jsonl, opts.Events, cells, keys)
	var misses []int
	for i := range cells {
		// A cancelled sweep looks up nothing more; the cells past here
		// never settle, so the report keeps a prefix.
		if ctx.Err() != nil {
			break
		}
		if opts.Store != nil {
			if rc, ok := opts.Store.Get(keys[i]); ok {
				set.settle(i, rc, stored)
				continue
			}
		}
		misses = append(misses, i)
	}

	var missed atomic.Uint64 // misses reached before any cancellation
	_, runErr := engine.Run(len(misses), spec.CellParallelism,
		func(j int) (struct{}, error) {
			i := misses[j]
			c := &cells[i]
			// The cell boundary is the interrupt granularity: a cancelled
			// context stops new cells, and the engine keeps exactly the
			// completed prefix a sequential scan would have.
			if ctx.Err() != nil {
				return struct{}{}, fmt.Errorf("suite: cell %s: %w", c.ID, ErrInterrupted)
			}
			opts.Events.Emit(eventlog.Event{Type: eventlog.TypeCellStart, Cell: c.ID, Tool: c.Tool.Name})
			if opts.Store != nil {
				missed.Add(1)
			}
			cellStart := time.Now()
			var rc report.Cell
			var err error
			if opts.Exec != nil {
				rc, err = opts.Exec(ctx, spec, *c)
			} else {
				rc, err = runCell(spec, *c)
			}
			if err != nil {
				if !errors.Is(err, ErrInterrupted) {
					opts.Events.Emit(eventlog.Event{
						Type: eventlog.TypeCellFailed, Cell: c.ID,
						Tool: c.Tool.Name, Detail: err.Error(),
						DurMS: float64(time.Since(cellStart).Microseconds()) / 1000,
					})
				}
				return struct{}{}, fmt.Errorf("suite: cell %s: %w", c.ID, err)
			}
			opts.Events.Emit(eventlog.Event{
				Type: eventlog.TypeCellExecuted, Cell: c.ID,
				Tool:  c.Tool.Name,
				DurMS: float64(time.Since(cellStart).Microseconds()) / 1000,
			})
			if opts.Store != nil {
				// A failed disk append degrades the store to memory-only for
				// this entry; the computed result is still correct.
				_ = opts.Store.Put(keys[i], rc)
			}
			set.settle(i, rc, computed)
			return struct{}{}, nil
		}, nil)
	if f, ok := opts.Store.(store.Flusher); ok {
		// Job end is the write-back barrier: a store whose puts are not
		// yet durable (the local store's unsynced appends) must persist
		// them before this job reports done, so no computed cell outlives
		// its job unpersisted, and a run's puts share one fsync. A flush
		// error degrades like a failed Put, never failing the job.
		_ = f.Flush()
	}
	if runErr != nil && !errors.Is(runErr, ErrInterrupted) {
		return nil, runErr
	}
	results, hits, err := set.done()
	if err != nil {
		return nil, fmt.Errorf("suite: streaming JSONL: %w", err)
	}
	interrupted := len(results) < len(cells)

	rep := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Suite:         spec.Name,
		SpecDigest:    p.digest,
		Cells:         results,
		Interrupted:   interrupted,
		PFACompiles:   pfa.CompileCount() - compilesBefore,
		StoreHits:     hits,
		StoreMisses:   missed.Load(),
		WallMS:        float64(time.Since(start).Microseconds()) / 1000,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	rep.Aggregate()
	if interrupted {
		return rep, fmt.Errorf("suite %q after %d/%d cells: %w", spec.Name, len(results), len(cells), ErrInterrupted)
	}
	return rep, nil
}

// ExecuteCell runs one expanded cell in-process — the lease-scoped
// unit of work a fleet worker performs on a hub's behalf, and the local
// fallback a degraded hub runs itself. Deterministic in (spec, cell):
// the cell's seed derives from its identity, so every execution of the
// same lease — original, retry after an expiry, or a stolen duplicate —
// produces a bit-identical result.
func ExecuteCell(spec *Spec, c Cell) (report.Cell, error) {
	return runCell(spec, c)
}

// CellByID finds one cell of the spec's expanded plan by expanding it
// and scanning. Only tests call it; fleet workers resolve leased cell
// IDs through the index of the plan they cache per spec digest.
func (s *Spec) CellByID(id string) (Cell, bool) {
	for _, c := range s.Expand() {
		if c.ID == id {
			return c, true
		}
	}
	return Cell{}, false
}

// runCell executes one matrix point through its tool's registered
// campaign runner: resolve the workload and the tool, apply the tool's
// execution-time defaults, run, and wrap the summary into the report
// cell. The registry owns everything tool-specific.
func runCell(spec *Spec, c Cell) (report.Cell, error) {
	start := time.Now()
	newFactory, err := c.Workload.NewFactory(c.Point.N)
	if err != nil {
		return report.Cell{}, err
	}
	tl, ok := tool.Lookup(c.Tool.Name)
	if !ok {
		return report.Cell{}, fmt.Errorf("unknown tool %q (want %s)", c.Tool.Name, tool.NamesHint())
	}
	sum, err := tl.Run(tool.Env{
		RE: spec.RE, PD: c.PD.Distribution(),
		N: c.Point.N, S: c.Point.S, Op: c.Op, Seed: c.Seed,
		Trials: spec.Trials, KeepGoing: spec.KeepGoing, Dedup: spec.Dedup,
		MaxSteps: spec.MaxSteps, CommandGap: spec.CommandGap,
		Parallelism: spec.TrialParallelism,
		Kernel:      c.Workload.Kernel(), NewFactory: newFactory,
		Spec: tl.Defaulted(c.Tool),
	})
	if err != nil {
		return report.Cell{}, err
	}

	return report.Cell{
		ID:       c.ID,
		Workload: c.Workload.Name,
		Op:       c.OpName,
		N:        c.Point.N,
		S:        c.Point.S,
		PD:       c.PD.Name,
		Tool:     tl.Label(c.Tool),
		Seed:     c.Seed,
		Summary:  sum,
		WallMS:   float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// cellState is where one cell of a run stands.
type cellState uint8

const (
	unsettled cellState = iota // not looked up yet, or a miss still running
	stored                     // a store hit, whose events go out as it settles
	computed                   // executed, its events already out
)

// settler hands cells to the JSONL stream and the report in plan order,
// whichever worker finishes first: a cell settles once it is a store
// hit or has executed and every cell before it has settled. A hit's
// start and cached events go out as it settles, after a check for
// cancellation, since that is the cell boundary a sequential scan
// would cross there; a cancellation seen there ends the prefix.
type settler struct {
	ctx    context.Context
	w      io.Writer
	events eventlog.Scoped
	cells  []Cell
	keys   []string // each cell's store key; nil without a store

	mu      sync.Mutex
	results []report.Cell
	state   []cellState
	next    int
	hits    uint64
	stopped bool
	failed  error
}

func newSettler(ctx context.Context, w io.Writer, events eventlog.Scoped, cells []Cell, keys []string) *settler {
	return &settler{
		ctx: ctx, w: w, events: events, cells: cells, keys: keys,
		results: make([]report.Cell, len(cells)),
		state:   make([]cellState, len(cells)),
	}
}

// settle records cell i as stored or computed and settles every cell
// of the plan-order prefix that is now complete.
func (s *settler) settle(i int, rc report.Cell, st cellState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[i], s.state[i] = rc, st
	for !s.stopped && s.next < len(s.state) && s.state[s.next] != unsettled {
		if s.state[s.next] == stored {
			if s.ctx.Err() != nil {
				s.stopped = true
				return
			}
			c := &s.cells[s.next]
			s.events.Emit(eventlog.Event{Type: eventlog.TypeCellStart, Cell: c.ID, Tool: c.Tool.Name})
			s.events.Emit(eventlog.Event{
				Type: eventlog.TypeCellCached, Cell: c.ID, Tool: c.Tool.Name, Key: s.keys[s.next],
			})
			s.hits++
		}
		if s.w != nil && s.failed == nil {
			s.failed = report.WriteJSONL(s.w, s.results[s.next])
		}
		s.next++
	}
}

// done returns the settled plan-order prefix, the store hits in it and
// the first JSONL write error. Call it once every worker has returned.
func (s *settler) done() ([]report.Cell, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[:s.next], s.hits, s.failed
}

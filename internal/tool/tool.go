// Package tool is the pluggable registry of scheduling-perturbation
// tools: the adaptive PFA-guided tester (pTest itself), the ConTest- and
// CHESS-style baselines, and any tool added later. Every layer above —
// suite validation, cell expansion, cell execution, the CLI, the daemon
// — dispatches through the registry instead of switching on tool names,
// so adding a tool is one self-registering file, immediately usable in
// suite matrices, the result store, ptestd jobs, and `ptest run -tool`.
//
// The split of responsibilities is deliberate:
//
//   - Spec is pure data, shared by every tool. It is part of the
//     on-disk cache contract (cell-identity keys hash it), so fields are
//     only ever appended, always with omitempty.
//   - Tool interprets a Spec: validates the knobs it owns, applies
//     execution-time defaults, renders the display label, collapses the
//     matrix axes it does not consume, and runs the campaign.
//   - Env is the execution environment the suite layer resolves for a
//     cell: generation inputs, kernel/workload wiring, and the shared
//     campaign knobs (trials, parallelism, budgets).
package tool

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/committee"
	"repro/internal/jsonenc"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/report"
)

// Spec names a testing tool and its knobs — the declarative form that
// appears in suite matrices. It is deliberately a closed struct rather
// than an open map: cell-identity keys and spec digests hash its
// canonical JSON, so the field set and tag order are part of the cache
// contract. New tools append fields (always omitempty, so existing
// specs keep their bytes); they never reorder or retag existing ones.
type Spec struct {
	// Name selects the tool in the registry.
	Name string `json:"name"`
	// Label distinguishes two variants of the same tool in cell IDs
	// (e.g. adaptive with and without refinement); defaults to Name.
	Label string `json:"label,omitempty"`

	// Adaptive: Refine enables coverage-guided distribution refinement
	// with aggressiveness Alpha (default 0.5) over windows of Window
	// trials (default 1).
	Refine bool    `json:"refine,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	Window int     `json:"window,omitempty"`

	// ConTest: per-continuation-point yield probability (default 0.2).
	NoiseP float64 `json:"noise_p,omitempty"`

	// CHESS: preemption bound (nil: 1; negative: unbounded) and schedule
	// cap (default 64 — systematic spaces explode combinatorially).
	PreemptionBound *int `json:"preemption_bound,omitempty"`
	MaxSchedules    int  `json:"max_schedules,omitempty"`

	// PCT: number of priority-change points per trial (default 3).
	Depth int `json:"depth,omitempty"`
}

// AppendMembers writes the members of s into w's open object, in
// exactly the bytes json.Marshal writes for them under the tags above.
// Cell keys and spec digests hash these bytes, so a knob added to Spec
// must be added here too; internal/suite's
// TestCellKeyBytesWriteEveryField, FuzzCellKeyBytes and FuzzParseSpec
// hold the two equal.
func (s *Spec) AppendMembers(w *jsonenc.Writer) {
	w.String("name", s.Name)
	if s.Label != "" {
		w.String("label", s.Label)
	}
	if s.Refine {
		w.Bool("refine", true)
	}
	if s.Alpha != 0 {
		w.Float("alpha", s.Alpha)
	}
	if s.Window != 0 {
		w.Int("window", int64(s.Window))
	}
	if s.NoiseP != 0 {
		w.Float("noise_p", s.NoiseP)
	}
	if s.PreemptionBound != nil {
		w.Int("preemption_bound", int64(*s.PreemptionBound))
	}
	if s.MaxSchedules != 0 {
		w.Int("max_schedules", int64(s.MaxSchedules))
	}
	if s.Depth != 0 {
		w.Int("depth", int64(s.Depth))
	}
}

// DisplayLabel is the spec's identity in cell IDs and reports: the
// explicit label, or the tool name.
func (s Spec) DisplayLabel() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Name
}

// Axes declares which matrix axes a tool consumes. The suite expander
// collapses axes a tool ignores instead of multiplying identical cells:
// a tool that ignores the merge op produces one cell per (workload,
// point, pd), not one per op.
type Axes struct {
	// Op: the pattern-merger strategy.
	Op bool
	// S: the per-pattern size of an (n, s) point.
	S bool
	// PD: the probability-distribution variant.
	PD bool
}

// Env is the resolved execution environment of one cell: everything a
// tool needs to run its campaign. The suite layer fills it from the
// defaulted spec and the expanded cell.
type Env struct {
	// RE is the service regular expression; PD the distribution variant
	// resolved to machine form (nil = uniform).
	RE string
	PD pfa.Distribution
	// N and S are the cell's (n, s) point; S is zero for tools that do
	// not consume the size axis.
	N, S int
	// Op is the merge strategy (zero value for tools that ignore it).
	Op pattern.Op
	// Seed is the cell's derived seed — (spec seed, cell ID) fix it.
	Seed uint64
	// Trials is the campaign budget; KeepGoing scans every trial instead
	// of stopping at the first bug.
	Trials    int
	KeepGoing bool
	// Dedup discards replicated patterns before merging.
	Dedup bool
	// MaxSteps bounds each run's co-simulation; CommandGap is the
	// master-side inter-command delay in cycles.
	MaxSteps   int
	CommandGap int
	// Parallelism shards trials inside the cell across a worker pool.
	Parallelism int
	// Kernel configures the simulated slave, faults armed.
	Kernel pcore.Config
	// NewFactory builds a fresh workload factory per trial.
	NewFactory func() committee.Factory
	// Spec is the tool spec after Defaulted — the knobs to honor.
	Spec Spec
}

// Tool is one scheduling-perturbation strategy. Implementations are
// stateless; all run state lives in Env and the campaign they execute.
type Tool interface {
	// Name is the registry key ("adaptive", "contest", ...).
	Name() string
	// Doc is a one-line description for `ptest tools`.
	Doc() string
	// Axes declares which matrix axes the tool consumes.
	Axes() Axes
	// Validate checks the knobs the tool owns and rejects knobs that
	// belong to other tools (a knob on the wrong tool would be silently
	// ignored at execution time, mislabeling the results).
	Validate(s Spec) error
	// Defaulted returns the spec with the tool's execution-time defaults
	// applied. Identity-preserving layers (cell IDs, cell keys, spec
	// digests) always hash the raw spec, never the defaulted one, so an
	// omitted knob and its explicit default may key differently — the
	// same contract the pre-registry code had.
	Defaulted(s Spec) Spec
	// Label renders the spec's identity in cell IDs and reports.
	Label(s Spec) string
	// Run executes the cell's campaign.
	Run(env Env) (report.CampaignSummary, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Tool{}
)

// Register adds a tool under its Name. It panics on a duplicate name:
// registration happens in init functions, and two tools silently
// fighting over one name would corrupt cell identities.
func Register(t Tool) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[t.Name()]; dup {
		panic(fmt.Sprintf("tool: duplicate registration of %q", t.Name()))
	}
	registry[t.Name()] = t
}

// Lookup resolves a tool name.
func Lookup(name string) (Tool, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	return t, ok
}

// Names lists the registered tool names, sorted — the vocabulary error
// messages and CLI help print.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registered returns the registered tools sorted by name.
func Registered() []Tool {
	regMu.RLock()
	defer regMu.RUnlock()
	tools := make([]Tool, 0, len(registry))
	for _, t := range registry {
		tools = append(tools, t)
	}
	sort.Slice(tools, func(i, j int) bool { return tools[i].Name() < tools[j].Name() })
	return tools
}

// NamesHint renders the registered names as the "(want a|b|c)" hint
// validation errors carry.
func NamesHint() string {
	return strings.Join(Names(), "|")
}

// knobError joins per-knob problems into one error, or nil.
func knobError(probs []string) error {
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(probs, "; "))
}

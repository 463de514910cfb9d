// Package suite is the campaign orchestrator: it expands a declarative
// matrix spec (workloads × merge ops × (n,s) points × PD variants ×
// tools) into a deterministic run plan, executes every cell through the
// shared campaign engine, and emits the machine-readable reports CI
// diffs run-over-run. The paper evaluates pTest exactly this way —
// sweeping workloads and configurations and comparing detection rates
// against ConTest- and CHESS-style baselines — and before this layer
// existed every sweep was a hand-rolled shell loop with no persisted
// results.
//
// Tools and workloads are not hard-coded here: names resolve through
// the internal/tool and internal/workload registries, so validation,
// labels, axis collapsing and execution all follow a registration
// instead of a switch. The spec structs those registries define are
// aliased below — they are part of the cell-identity cache contract,
// and the aliases keep the suite API (and its JSON) unchanged.
package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
	"repro/internal/pattern"
	"repro/internal/pfa"
	"repro/internal/tool"
	"repro/internal/workload"
)

// Point is one (n, s) coordinate: n test patterns of size s.
type Point struct {
	N int `json:"n"`
	S int `json:"s"`
}

// WorkloadSpec names a slave workload plus its kernel configuration,
// including the fault plan that seeds the bugs campaigns hunt. Names
// resolve through the internal/workload registry.
type WorkloadSpec = workload.Spec

// ToolSpec names a testing tool and its knobs. Names resolve through
// the internal/tool registry; axes a tool does not consume (per its
// registered Axes) are collapsed during expansion rather than
// multiplying identical cells.
type ToolSpec = tool.Spec

// Workload knob defaults, re-exported so CLI flags and hand-built
// specs share the execution constants.
const (
	// DefaultRounds is the philosophers' eating-round budget.
	DefaultRounds = workload.DefaultRounds
	// DefaultItems is the producer/consumer item count.
	DefaultItems = workload.DefaultItems
	// DefaultHogBursts is the priority-inversion hog's burst count.
	DefaultHogBursts = workload.DefaultHogBursts
)

// PDSpec names a probability-distribution variant: a builtin or an
// inline distribution.
type PDSpec struct {
	Name string `json:"name"`
	// Builtin selects a named distribution: pcore (the paper's Figure 5),
	// figure3, or uniform. Empty with a nil Dist also means uniform.
	Builtin string `json:"builtin,omitempty"`
	// Dist is an inline from→symbol→probability table ("^" = start).
	Dist map[string]map[string]float64 `json:"dist,omitempty"`
}

// Spec is the declarative matrix: the axes plus the shared campaign
// configuration. Parse validates every field up front so a bad spec
// fails with one greppable message instead of mid-sweep.
type Spec struct {
	Name string `json:"name"`
	// RE is the service regular expression (default: the paper's pCore
	// expression (2)).
	RE string `json:"re,omitempty"`
	// Seed is folded into every cell's derived seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Trials per cell (default 5). The CHESS tool bounds schedules with
	// MaxSchedules instead.
	Trials int `json:"trials,omitempty"`
	// KeepGoing scans every trial instead of stopping a cell's campaign
	// at its first bug.
	KeepGoing bool `json:"keep_going,omitempty"`
	// MaxSteps bounds each run's co-simulation (default 2,000,000).
	MaxSteps int `json:"max_steps,omitempty"`
	// CommandGap is the master-side inter-command delay in cycles.
	CommandGap int `json:"command_gap,omitempty"`
	// Dedup discards replicated patterns before merging.
	Dedup bool `json:"dedup,omitempty"`
	// CellParallelism shards cells across workers (0/1 sequential,
	// negative: one worker per CPU); TrialParallelism does the same for
	// the trials inside each cell. Reports are identical at any setting.
	CellParallelism  int `json:"cell_parallelism,omitempty"`
	TrialParallelism int `json:"trial_parallelism,omitempty"`

	Workloads []WorkloadSpec `json:"workloads"`
	Ops       []string       `json:"ops"`
	Points    []Point        `json:"points"`
	// PDs defaults to the paper's Figure 5 distribution.
	PDs   []PDSpec   `json:"pds,omitempty"`
	Tools []ToolSpec `json:"tools"`
}

// Parse decodes, defaults and validates a spec. Unknown fields are
// rejected so a typoed axis name cannot silently shrink the matrix.
func Parse(r io.Reader) (*Spec, error) {
	s, err := decode(r)
	if err != nil {
		return nil, err
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode reads one spec, refusing unknown fields.
func decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("suite: spec: %w", err)
	}
	return &s, nil
}

// ParseFile loads and validates a spec from path.
func ParseFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("suite: %s: %w", path, err)
	}
	return s, nil
}

// DefaultMaxSteps mirrors core.Config's step budget default. Applied
// here too so an omitted max_steps and an explicit default produce the
// same spec — and therefore the same cell-identity keys.
const DefaultMaxSteps = 2_000_000

func (s *Spec) applyDefaults() {
	if s.RE == "" {
		s.RE = pfa.PCoreRE
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Trials <= 0 {
		s.Trials = 5
	}
	if s.MaxSteps <= 0 {
		s.MaxSteps = DefaultMaxSteps
	}
	// Workload knobs normalize to their execution defaults so omitted
	// and explicit-default specs share cell identities. Clone the slice
	// first: callers of RunContext get a shallow spec copy, and writing
	// through the shared backing array would mutate their spec.
	if len(s.Workloads) > 0 {
		ws := make([]WorkloadSpec, len(s.Workloads))
		for i, w := range s.Workloads {
			ws[i] = w.WithDefaults()
		}
		s.Workloads = ws
	}
	if len(s.PDs) == 0 {
		s.PDs = []PDSpec{{Name: "figure5", Builtin: "pcore"}}
	}
}

// Validate checks every axis and collects all problems into one error,
// so a CI failure names everything wrong with the spec at once.
func (s *Spec) Validate() error {
	var probs []string
	bad := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		bad("name: required")
	}
	if len(s.Workloads) == 0 {
		bad("workloads: at least one required")
	}
	seenWorkload := map[string]bool{}
	for i, w := range s.Workloads {
		// The workload registry is the single source of truth for names.
		if _, err := w.NewFactory(1); err != nil {
			bad("workloads[%d]: %v", i, err)
		}
		// Cell IDs key on the workload name, so two variants of one
		// workload would silently collapse to a single cell.
		if seenWorkload[w.Name] {
			bad("workloads[%d]: duplicate workload %q (one config per workload)", i, w.Name)
		}
		seenWorkload[w.Name] = true
	}
	if len(s.Ops) == 0 {
		bad("ops: at least one required")
	}
	seenOp := map[pattern.Op]bool{}
	for i, name := range s.Ops {
		op, err := pattern.ParseOp(name)
		if err != nil {
			bad("ops[%d]: %v", i, err)
			continue
		}
		// Aliases ("rr", "roundrobin") parse to the same op; listing
		// both would duplicate every cell under two names.
		if seenOp[op] {
			bad("ops[%d]: duplicate op %q", i, op)
		}
		seenOp[op] = true
	}
	if len(s.Points) == 0 {
		bad("points: at least one required")
	}
	for i, p := range s.Points {
		if p.N <= 0 || p.S <= 0 {
			bad("points[%d]: n and s must be positive (got n=%d s=%d)", i, p.N, p.S)
		}
	}
	seenPD := map[string]bool{}
	for i, pd := range s.PDs {
		if pd.Name == "" {
			bad("pds[%d]: name required", i)
		}
		if seenPD[pd.Name] {
			bad("pds[%d]: duplicate name %q", i, pd.Name)
		}
		seenPD[pd.Name] = true
		switch pd.Builtin {
		case "", "pcore", "figure3", "uniform":
		default:
			bad("pds[%d]: unknown builtin %q (want pcore|figure3|uniform)", i, pd.Builtin)
		}
		if pd.Builtin != "" && pd.Dist != nil {
			bad("pds[%d]: builtin and dist are mutually exclusive", i)
		}
	}
	if len(s.Tools) == 0 {
		bad("tools: at least one required")
	}
	seenTool := map[string]bool{}
	for i, t := range s.Tools {
		tl, ok := tool.Lookup(t.Name)
		if !ok {
			bad("tools[%d]: unknown tool %q (want %s)", i, t.Name, tool.NamesHint())
			continue
		}
		label := tl.Label(t)
		if seenTool[label] {
			bad("tools[%d]: duplicate tool label %q (set label to distinguish variants)", i, label)
		}
		seenTool[label] = true
		// Each tool validates the knobs it owns — a knob on the wrong
		// tool is silently ignored at execution time, mislabeling the
		// results, so the registry rejects it up front.
		if err := tl.Validate(t); err != nil {
			bad("tools[%d] (%s): %v", i, label, err)
		}
	}
	if _, err := builtinPDs[""].Compile(s.RE); err != nil {
		bad("re: %v", err)
	} else {
		// Every PD variant must compile against the RE up front — an
		// unnormalized inline dist failing mid-sweep after minutes of
		// completed cells is exactly what Validate exists to prevent.
		for i, pd := range s.PDs {
			var err error
			if f, ok := builtinPDs[pd.Builtin]; ok && pd.Dist == nil {
				_, err = f.Compile(s.RE)
			} else {
				_, err = pfa.Compile(s.RE, pd.Distribution())
			}
			if err != nil {
				bad("pds[%d] (%s): %v", i, pd.Name, err)
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("suite: invalid spec: %s", strings.Join(probs, "; "))
	}
	return nil
}

// builtinPDs are the builtin distributions, built and fingerprinted
// once, so that validating a spec does neither for each PD variant.
// The empty name is uniform, like the builtin "uniform".
var builtinPDs = map[string]*pfa.Fixed{
	"":        pfa.Fix(nil),
	"uniform": pfa.Fix(nil),
	"pcore":   pfa.Fix(pfa.PCoreDistribution()),
	"figure3": pfa.Fix(pfa.Figure3Distribution()),
}

// Distribution resolves the PD variant to the machine form.
func (p PDSpec) Distribution() pfa.Distribution {
	switch p.Builtin {
	case "pcore":
		return pfa.PCoreDistribution()
	case "figure3":
		return pfa.Figure3Distribution()
	case "uniform":
		return nil
	}
	if p.Dist == nil {
		return nil
	}
	d := pfa.Distribution{}
	for from, cond := range p.Dist {
		c := map[string]float64{}
		for sym, prob := range cond {
			c[sym] = prob
		}
		d[from] = c
	}
	return d
}

// digestSpec is the serialization Digest hashes: the Spec field for
// field, minus the execution knobs that cannot change results
// (parallelism). appendDigest writes its json.Marshal bytes directly;
// the struct stays as the reference the digest tests marshal, and
// TestDigestSpecMirrorsSpec holds its fields to Spec's. The rendered
// bytes are the pre-refactor ones, pinned by TestGoldenIdentity.
type digestSpec struct {
	Name       string         `json:"name"`
	RE         string         `json:"re,omitempty"`
	Seed       uint64         `json:"seed,omitempty"`
	Trials     int            `json:"trials,omitempty"`
	KeepGoing  bool           `json:"keep_going,omitempty"`
	MaxSteps   int            `json:"max_steps,omitempty"`
	CommandGap int            `json:"command_gap,omitempty"`
	Dedup      bool           `json:"dedup,omitempty"`
	Workloads  []WorkloadSpec `json:"workloads"`
	Ops        []string       `json:"ops"`
	Points     []Point        `json:"points"`
	PDs        []PDSpec       `json:"pds,omitempty"`
	Tools      []ToolSpec     `json:"tools"`
}

// Digest fingerprints the validated spec (canonical JSON, SHA-256
// truncated to 12 hex chars). Reports carry it so the comparator can
// warn when a baseline was produced from a different spec. Execution
// knobs that cannot change results (parallelism) are excluded, so the
// same matrix digests identically at any worker count. Digest never
// returns "": a non-finite float, which only an unvalidatable inline
// distribution or tool knob can hold, is sanitized and the spec
// encoded again, rather than collapsing every such spec onto one
// digest.
func (s *Spec) Digest() string {
	data, err := appendDigest(nil, s)
	if err != nil {
		// Such a spec can never validate, so its digest only needs to be
		// non-empty and deterministic. Pointer formatting (%#v-style) is
		// out, it would bake in addresses.
		clean := sanitizeNonFinite(*s)
		if data, err = appendDigest(data[:0], &clean); err != nil {
			data = []byte(s.Name)
		}
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// appendDigest appends the bytes Digest hashes: exactly what
// json.Marshal writes for the spec's digestSpec, built without
// reflection. FuzzParseSpec and TestDigestBytesWriteEveryField hold the
// two equal, so a field added to Spec and digestSpec must be added here
// too.
func appendDigest(dst []byte, s *Spec) ([]byte, error) {
	w := jsonenc.Writer{B: dst}
	w.BeginObject()
	w.String("name", s.Name)
	if s.RE != "" {
		w.String("re", s.RE)
	}
	if s.Seed != 0 {
		w.Uint("seed", s.Seed)
	}
	if s.Trials != 0 {
		w.Int("trials", int64(s.Trials))
	}
	if s.KeepGoing {
		w.Bool("keep_going", true)
	}
	if s.MaxSteps != 0 {
		w.Int("max_steps", int64(s.MaxSteps))
	}
	if s.CommandGap != 0 {
		w.Int("command_gap", int64(s.CommandGap))
	}
	if s.Dedup {
		w.Bool("dedup", true)
	}
	if s.Workloads == nil {
		w.Null("workloads")
	} else {
		w.Array("workloads")
		for i := range s.Workloads {
			w.BeginObject()
			s.Workloads[i].AppendMembers(&w)
			w.EndObject()
		}
		w.EndArray()
	}
	if s.Ops == nil {
		w.Null("ops")
	} else {
		w.Array("ops")
		for _, op := range s.Ops {
			w.StringElem(op)
		}
		w.EndArray()
	}
	if s.Points == nil {
		w.Null("points")
	} else {
		w.Array("points")
		for _, p := range s.Points {
			w.BeginObject()
			w.Int("n", int64(p.N))
			w.Int("s", int64(p.S))
			w.EndObject()
		}
		w.EndArray()
	}
	if len(s.PDs) > 0 {
		w.Array("pds")
		for i := range s.PDs {
			w.BeginObject()
			s.PDs[i].appendMembers(&w)
			w.EndObject()
		}
		w.EndArray()
	}
	if s.Tools == nil {
		w.Null("tools")
	} else {
		w.Array("tools")
		for i := range s.Tools {
			w.BeginObject()
			s.Tools[i].AppendMembers(&w)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	return w.B, w.Err()
}

// sanitizeNonFinite replaces NaN/Inf floats with sentinels json.Marshal
// accepts, deterministically in the input. Only Digest's fallback path
// uses it; validated specs never reach it.
func sanitizeNonFinite(d Spec) Spec {
	fix := func(f float64) float64 {
		switch {
		case math.IsNaN(f):
			return -1
		case math.IsInf(f, 1):
			return math.MaxFloat64
		case math.IsInf(f, -1):
			return -math.MaxFloat64
		}
		return f
	}
	if len(d.Tools) > 0 {
		ts := make([]ToolSpec, len(d.Tools))
		copy(ts, d.Tools)
		for i := range ts {
			ts[i].Alpha, ts[i].NoiseP = fix(ts[i].Alpha), fix(ts[i].NoiseP)
		}
		d.Tools = ts
	}
	if len(d.PDs) > 0 {
		pds := make([]PDSpec, len(d.PDs))
		copy(pds, d.PDs)
		for i := range pds {
			if pds[i].Dist == nil {
				continue
			}
			dist := make(map[string]map[string]float64, len(pds[i].Dist))
			for from, cond := range pds[i].Dist {
				c := make(map[string]float64, len(cond))
				for sym, p := range cond {
					c[sym] = fix(p)
				}
				dist[from] = c
			}
			pds[i].Dist = dist
		}
		d.PDs = pds
	}
	return d
}

// Cell is one expanded matrix point, ready to execute. Axes the cell's
// tool does not consume hold zero values.
type Cell struct {
	ID       string
	Workload WorkloadSpec
	OpName   string
	Op       pattern.Op
	Point    Point
	PD       PDSpec
	Tool     ToolSpec
	// Seed derives from the cell ID and the spec seed — stable under
	// reordering or growth of the matrix, so adding a workload never
	// shifts existing cells' results.
	Seed uint64
}

// Expand flattens the matrix into the deterministic run plan. Iteration
// order is fixed (workload, point, pd, op, tool) and each tool's
// registered Axes collapse the axes it ignores — the plan never
// contains two cells that would execute identically.
func (s *Spec) Expand() []Cell {
	cells, _ := s.expand()
	return cells
}

// expand is Expand, also returning each cell's position in the plan by
// ID: the map that drops duplicate cells, which a Plan keeps as its
// index.
func (s *Spec) expand() ([]Cell, map[string]int) {
	n := s.planHint()
	cells := make([]Cell, 0, n)
	index := make(map[string]int, n)
	for _, w := range s.Workloads {
		for _, pt := range s.Points {
			for _, pd := range s.PDs {
				for _, opName := range s.Ops {
					op, _ := pattern.ParseOp(opName)
					for _, ts := range s.Tools {
						c := Cell{Workload: w, Point: pt, PD: pd, Tool: ts}
						axes, label := toolAxes(ts)
						if axes.Op {
							// The canonical name, not the spec's spelling:
							// "rr" and "roundrobin" must produce one cell
							// with one stable ID and seed.
							c.OpName, c.Op = op.String(), op
						}
						if !axes.S {
							c.Point.S = 0
						}
						if !axes.PD {
							c.PD = PDSpec{}
						}
						c.ID = cellID(c, label)
						if _, dup := index[c.ID]; dup {
							continue
						}
						index[c.ID] = len(cells)
						c.Seed = deriveSeed(s.Seed, c.ID)
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells, index
}

// maxPlanHint caps the cells Expand makes room for up front. Past it a
// few regrowths cost nothing beside the cells' execution, and a spec
// whose points collapse (repeated, or differing only in an s that a
// tool ignores) cannot reserve room for cells it never makes.
const maxPlanHint = 1024

// planHint is the number of cells Expand makes when no points collapse,
// at most maxPlanHint: each tool adds the product of the axes it
// consumes, not of every axis.
func (s *Spec) planHint() int {
	mul := func(a, b int) int { return min(min(a, maxPlanHint)*min(b, maxPlanHint), maxPlanHint) }
	n := 0
	for _, ts := range s.Tools {
		axes, _ := toolAxes(ts)
		k := mul(len(s.Workloads), len(s.Points))
		if axes.PD {
			k = mul(k, len(s.PDs))
		}
		if axes.Op {
			k = mul(k, len(s.Ops))
		}
		n = min(n+k, maxPlanHint)
	}
	return n
}

// toolAxes resolves a tool spec's consumed axes and display label. An
// unregistered name (only reachable from an unvalidated spec; runCell
// rejects it with a real error) conservatively keeps the size and PD
// axes, matching the pre-registry expansion.
func toolAxes(ts ToolSpec) (tool.Axes, string) {
	if tl, ok := tool.Lookup(ts.Name); ok {
		return tl.Axes(), tl.Label(ts)
	}
	return tool.Axes{S: true, PD: true}, ts.DisplayLabel()
}

// cellID renders the cell's consumed axes: e.g.
// "quicksort/cyclic/n4s12/figure5/adaptive", "quicksort/n4s12/figure5/chess",
// "quicksort/n4/contest".
func cellID(c Cell, label string) string {
	var buf [128]byte // holds any usual ID, so the string is the one allocation
	b := append(buf[:0], c.Workload.Name...)
	if c.OpName != "" {
		b = append(append(b, '/'), c.OpName...)
	}
	b = strconv.AppendInt(append(b, "/n"...), int64(c.Point.N), 10)
	if c.Point.S > 0 {
		b = strconv.AppendInt(append(b, 's'), int64(c.Point.S), 10)
	}
	if c.PD.Name != "" {
		b = append(append(b, '/'), c.PD.Name...)
	}
	return string(append(append(b, '/'), label...))
}

// deriveSeed hashes the cell identity into the 64-bit seed space and
// folds in the spec's base seed, so (spec seed, cell ID) alone fix
// every random choice the cell makes.
func deriveSeed(base uint64, id string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64() ^ (base * 0x9e3779b97f4a7c15)
}

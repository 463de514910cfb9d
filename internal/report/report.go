// Package report defines the machine-readable results the suite
// orchestrator emits and CI diffs run-over-run: a per-cell campaign
// summary, the aggregated suite report, and the JSON/JSONL encodings.
// Everything in a report except the explicitly-marked timing fields is
// deterministic in the suite spec, so two runs of the same spec produce
// byte-identical canonical reports and a committed baseline can gate
// regressions on any machine.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/jsonenc"
)

// SchemaVersion is stamped into every report; Read rejects reports from
// a different schema so CI diffs never compare incompatible encodings.
const SchemaVersion = 1

// CampaignSummary is the tool-agnostic result of one campaign (a matrix
// cell): what pTest, the ConTest-style baseline and the CHESS-style
// explorer all reduce to. The tool packages expose it via Summary()
// methods so callers aggregate structs instead of scraping printed
// output.
type CampaignSummary struct {
	// Trials is the number of runs executed (schedules, for the
	// systematic explorer).
	Trials int `json:"trials"`
	// Bugs counts failing trials.
	Bugs int `json:"bugs"`
	// BugRate is Bugs/Trials — the detection rate CI gates on.
	BugRate float64 `json:"bug_rate"`
	// FirstBugTrial is the 1-based trial of the first failure (0: none) —
	// the detection-latency metric CI gates on.
	FirstBugTrial int `json:"first_bug_trial,omitempty"`
	// FirstBug is the one-line summary of the first failure.
	FirstBug string `json:"first_bug,omitempty"`
	// CleanFinishes counts trials that completed their whole pattern
	// without a failure (adaptive tool only).
	CleanFinishes int `json:"clean_finishes,omitempty"`
	// TotalCommands sums remote commands issued across trials.
	TotalCommands int `json:"total_commands,omitempty"`
	// TotalCycles sums virtual platform time across trials. Virtual, not
	// wall, time — fully deterministic.
	TotalCycles uint64 `json:"total_cycles"`
	// SpaceExhausted reports that the systematic explorer enumerated its
	// whole bounded schedule space (chess tool only).
	SpaceExhausted bool `json:"space_exhausted,omitempty"`
	// ServiceCoverage / TransitionCoverage are the mean per-trial
	// coverage fractions (adaptive tool only).
	ServiceCoverage    float64 `json:"service_coverage,omitempty"`
	TransitionCoverage float64 `json:"transition_coverage,omitempty"`
	// InterleavingPairs is the max distinct cross-task service pairs any
	// trial observed (adaptive tool only).
	InterleavingPairs int `json:"interleaving_pairs,omitempty"`
}

// Cell is one executed matrix point: its coordinates, the derived seed,
// and the campaign summary. Axes a tool does not consume are recorded
// as their zero value (op/pd "", s 0).
type Cell struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Op       string `json:"op,omitempty"`
	N        int    `json:"n"`
	S        int    `json:"s,omitempty"`
	PD       string `json:"pd,omitempty"`
	Tool     string `json:"tool"`
	// Seed is the cell's base seed, derived from the cell ID so reruns
	// and spec edits never shift other cells' seeds.
	Seed uint64 `json:"seed"`

	Summary CampaignSummary `json:"summary"`

	// WallMS is host wall-clock time for the cell — a timing field,
	// zeroed by Canonical.
	WallMS float64 `json:"wall_ms"`
}

// Totals aggregates the cells of one report.
type Totals struct {
	Cells int `json:"cells"`
	// CellsWithBugs counts cells whose campaign found at least one bug;
	// DetectionRate is the fraction.
	CellsWithBugs int     `json:"cells_with_bugs"`
	DetectionRate float64 `json:"detection_rate"`
	Trials        int     `json:"trials"`
	Bugs          int     `json:"bugs"`
	TotalCommands int     `json:"total_commands"`
	TotalCycles   uint64  `json:"total_cycles"`
}

// Report is the aggregated output of one suite run.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Suite         string `json:"suite"`
	// SpecDigest fingerprints the expanded spec; Compare warns when the
	// two reports were produced from different specs.
	SpecDigest string `json:"spec_digest,omitempty"`
	Cells      []Cell `json:"cells"`
	Totals     Totals `json:"totals"`

	// Interrupted marks a partial report: the run was cancelled (SIGINT,
	// job cancellation, server drain) after a plan-order prefix of its
	// cells completed. Semantic, not environmental — Canonical keeps it.
	Interrupted bool `json:"interrupted,omitempty"`

	// PFACompiles is the number of full PFA constructions the run paid
	// (cache misses). Environment-sensitive under parallel cell races,
	// so Canonical zeroes it alongside the timing fields.
	PFACompiles uint64 `json:"pfa_compiles,omitempty"`
	// StoreHits / StoreMisses count cells served from / absent from the
	// content-addressed result store. Warm-cache dependent (a rerun hits
	// where the first run missed), so Canonical zeroes them with the
	// timing fields.
	StoreHits   uint64 `json:"store_hits,omitempty"`
	StoreMisses uint64 `json:"store_misses,omitempty"`
	// WallMS / CreatedAt are timing fields, zeroed by Canonical.
	WallMS    float64 `json:"wall_ms"`
	CreatedAt string  `json:"created_at,omitempty"`
}

// Aggregate recomputes Totals from Cells.
func (r *Report) Aggregate() {
	t := Totals{Cells: len(r.Cells)}
	for _, c := range r.Cells {
		t.Trials += c.Summary.Trials
		t.Bugs += c.Summary.Bugs
		t.TotalCommands += c.Summary.TotalCommands
		t.TotalCycles += c.Summary.TotalCycles
		if c.Summary.Bugs > 0 {
			t.CellsWithBugs++
		}
	}
	if t.Cells > 0 {
		t.DetectionRate = float64(t.CellsWithBugs) / float64(t.Cells)
	}
	r.Totals = t
}

// Canonical returns a copy with every timing/environment field zeroed:
// per-cell and total wall time, the creation stamp, and the PFA compile
// count. Two runs of the same spec produce byte-identical canonical
// reports; the determinism tests and committed baselines rely on it.
func Canonical(r *Report) *Report {
	out := *r
	out.WallMS = 0
	out.CreatedAt = ""
	out.PFACompiles = 0
	out.StoreHits, out.StoreMisses = 0, 0
	out.Cells = make([]Cell, len(r.Cells))
	for i, c := range r.Cells {
		c.WallMS = 0
		out.Cells[i] = c
	}
	return &out
}

// Write encodes the report as Append does.
func Write(w io.Writer, r *Report) error {
	bp := bufs.Get().(*[]byte)
	data, err := Append((*bp)[:0], r)
	if err == nil {
		_, err = w.Write(data)
	}
	*bp = data
	bufs.Put(bp)
	return err
}

// Append appends the report as indented JSON with a trailing newline:
// the bytes json.MarshalIndent(r, "", "  ") writes, plus '\n'.
func Append(dst []byte, r *Report) ([]byte, error) {
	return appendIndented(dst, r, false)
}

// AppendCanonical appends the bytes Append(dst, Canonical(r)) would,
// without Canonical's copy of the report and its cells: the fields
// Canonical zeroes are written as zero, and nil cells as the empty
// list Canonical makes of them.
func AppendCanonical(dst []byte, r *Report) ([]byte, error) {
	return appendIndented(dst, r, true)
}

func appendIndented(dst []byte, r *Report, canonical bool) ([]byte, error) {
	data, err := appendReport(dst, r, canonical)
	if err != nil {
		return data, fmt.Errorf("report: encoding: %w", err)
	}
	return append(data, '\n'), nil
}

// bufs recycles encoding buffers: a hub encodes a JSONL line for every
// cell it serves and a report for every fetch. An io.Writer never
// keeps the slice it is given, so a buffer is free again once written.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFile writes the report to path.
func WriteFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := Write(f, r); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Read decodes and validates one report.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("report: schema version %d (want %d)", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// ReadFile loads a report from path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	r, err := Read(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return r, nil
}

// WriteJSONL appends one cell as a single JSON line — the streaming
// encoding the suite runner emits as cells complete.
func WriteJSONL(w io.Writer, c Cell) error {
	bp := bufs.Get().(*[]byte)
	data, err := AppendCell((*bp)[:0], &c)
	if err != nil {
		err = fmt.Errorf("report: encoding cell %s: %w", c.ID, err)
	} else {
		data = append(data, '\n')
		_, err = w.Write(data)
	}
	*bp = data
	bufs.Put(bp)
	return err
}

// appendReport appends r exactly as json.MarshalIndent(r, "", "  ")
// encodes it, or, canonical, as it encodes Canonical(r), without
// reflection. FuzzReportEncoding holds them equal, so a field added to
// Report, Totals, Cell or CampaignSummary must be added here too, and
// to Canonical if it is a timing field.
func appendReport(dst []byte, r *Report, canonical bool) ([]byte, error) {
	w := jsonenc.Writer{B: dst, Indent: true}
	w.BeginObject()
	w.Int("schema_version", int64(r.SchemaVersion))
	w.String("suite", r.Suite)
	if r.SpecDigest != "" {
		w.String("spec_digest", r.SpecDigest)
	}
	if r.Cells == nil && !canonical {
		w.Null("cells")
	} else {
		w.Array("cells")
		for i := range r.Cells {
			w.BeginObject()
			writeCellFields(&w, &r.Cells[i], canonical)
			w.EndObject()
		}
		w.EndArray()
	}
	t := &r.Totals
	w.Object("totals")
	w.Int("cells", int64(t.Cells))
	w.Int("cells_with_bugs", int64(t.CellsWithBugs))
	w.Float("detection_rate", t.DetectionRate)
	w.Int("trials", int64(t.Trials))
	w.Int("bugs", int64(t.Bugs))
	w.Int("total_commands", int64(t.TotalCommands))
	w.Uint("total_cycles", t.TotalCycles)
	w.EndObject()
	if r.Interrupted {
		w.Bool("interrupted", true)
	}
	pfa, hits, misses, wall, created := r.PFACompiles, r.StoreHits, r.StoreMisses, r.WallMS, r.CreatedAt
	if canonical {
		pfa, hits, misses, wall, created = 0, 0, 0, 0, ""
	}
	if pfa != 0 {
		w.Uint("pfa_compiles", pfa)
	}
	if hits != 0 {
		w.Uint("store_hits", hits)
	}
	if misses != 0 {
		w.Uint("store_misses", misses)
	}
	w.Float("wall_ms", wall)
	if created != "" {
		w.String("created_at", created)
	}
	w.EndObject()
	return w.B, w.Err()
}

// AppendCell appends c exactly as json.Marshal(c) encodes it, without
// reflection: the JSONL line, and the cell a store record carries.
func AppendCell(dst []byte, c *Cell) ([]byte, error) {
	w := jsonenc.Writer{B: dst}
	w.BeginObject()
	writeCellFields(&w, c, false)
	w.EndObject()
	return w.B, w.Err()
}

// writeCellFields writes the members of one cell object, in either
// layout; canonical writes its wall time as zero.
func writeCellFields(w *jsonenc.Writer, c *Cell, canonical bool) {
	w.String("id", c.ID)
	w.String("workload", c.Workload)
	if c.Op != "" {
		w.String("op", c.Op)
	}
	w.Int("n", int64(c.N))
	if c.S != 0 {
		w.Int("s", int64(c.S))
	}
	if c.PD != "" {
		w.String("pd", c.PD)
	}
	w.String("tool", c.Tool)
	w.Uint("seed", c.Seed)
	s := &c.Summary
	w.Object("summary")
	w.Int("trials", int64(s.Trials))
	w.Int("bugs", int64(s.Bugs))
	w.Float("bug_rate", s.BugRate)
	if s.FirstBugTrial != 0 {
		w.Int("first_bug_trial", int64(s.FirstBugTrial))
	}
	if s.FirstBug != "" {
		w.String("first_bug", s.FirstBug)
	}
	if s.CleanFinishes != 0 {
		w.Int("clean_finishes", int64(s.CleanFinishes))
	}
	if s.TotalCommands != 0 {
		w.Int("total_commands", int64(s.TotalCommands))
	}
	w.Uint("total_cycles", s.TotalCycles)
	if s.SpaceExhausted {
		w.Bool("space_exhausted", true)
	}
	if s.ServiceCoverage != 0 {
		w.Float("service_coverage", s.ServiceCoverage)
	}
	if s.TransitionCoverage != 0 {
		w.Float("transition_coverage", s.TransitionCoverage)
	}
	if s.InterleavingPairs != 0 {
		w.Int("interleaving_pairs", int64(s.InterleavingPairs))
	}
	w.EndObject()
	wall := c.WallMS
	if canonical {
		wall = 0
	}
	w.Float("wall_ms", wall)
}

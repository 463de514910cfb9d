package suite

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
)

// smokeSpec is a tiny but representative matrix: one faulty workload,
// one clean one, all three tools, two (n,s) points.
func smokeSpec() *Spec {
	s := &Spec{
		Name:      "test",
		Trials:    2,
		KeepGoing: true,
		MaxSteps:  200000,
		Workloads: []WorkloadSpec{
			{Name: "quicksort", Seed: 5, GCEvery: 4, GCLeakEvery: 2},
			{Name: "spin"},
		},
		Ops:    []string{"roundrobin"},
		Points: []Point{{N: 4, S: 8}, {N: 8, S: 12}},
		Tools: []ToolSpec{
			{Name: "adaptive"},
			{Name: "contest"},
			{Name: "chess", MaxSchedules: 4},
		},
	}
	s.applyDefaults()
	return s
}

func TestParseValidatesEverythingAtOnce(t *testing.T) {
	bad := `{
		"name": "",
		"workloads": [{"name": "nosuch"}],
		"ops": ["bogus"],
		"points": [{"n": 0, "s": -1}],
		"tools": [{"name": "zz"}]
	}`
	_, err := Parse(strings.NewReader(bad))
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"name: required", "nosuch", "bogus", "points[0]", "zz"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

func TestValidateRejectsSilentCollapses(t *testing.T) {
	// Duplicate workload names would fold two configs into one cell.
	s := smokeSpec()
	s.Workloads = append(s.Workloads, WorkloadSpec{Name: "quicksort"})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate workload") {
		t.Fatalf("duplicate workload accepted: %v", err)
	}
	// Op aliases parse to the same op and must not double the matrix.
	s = smokeSpec()
	s.Ops = []string{"roundrobin", "rr"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate op") {
		t.Fatalf("aliased op accepted: %v", err)
	}
	// Knobs on the wrong tool are silently ignored at runtime.
	s = smokeSpec()
	s.Tools = []ToolSpec{{Name: "contest", MaxSchedules: 9}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "contest only takes") {
		t.Fatalf("chess knob on contest accepted: %v", err)
	}
	// Refinement knobs without refine:true mislabel the campaign.
	s = smokeSpec()
	s.Tools = []ToolSpec{{Name: "adaptive", Alpha: 0.5}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "refine") {
		t.Fatalf("alpha without refine accepted: %v", err)
	}
}

func TestExpandCanonicalizesOpAliases(t *testing.T) {
	// Spec spelling "rr" must land in cell IDs as "roundrobin" so IDs
	// (and hence derived seeds) survive alias renames.
	s := smokeSpec()
	s.Ops = []string{"rr"}
	for _, c := range s.Expand() {
		if c.Tool.Name == "adaptive" && c.OpName != "roundrobin" {
			t.Fatalf("cell %s kept alias op name %q", c.ID, c.OpName)
		}
	}
}

func TestValidateCompilesPDVariants(t *testing.T) {
	// An unnormalized inline dist must fail validation up front, not
	// minutes into the sweep when its first cell compiles the PFA.
	s := smokeSpec()
	s.PDs = []PDSpec{{Name: "broken", Dist: map[string]map[string]float64{"^": {"TC": 0.3}}}}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("invalid PD variant accepted: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name": "x", "workloadz": []}`))
	if err == nil || !strings.Contains(err.Error(), "workloadz") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestExpandCollapsesUnusedAxes(t *testing.T) {
	s := smokeSpec()
	s.Ops = []string{"roundrobin", "cyclic"}
	s.PDs = []PDSpec{{Name: "figure5", Builtin: "pcore"}, {Name: "uniform", Builtin: "uniform"}}
	cells := s.Expand()

	counts := map[string]int{}
	ids := map[string]bool{}
	for _, c := range cells {
		counts[c.Tool.Name]++
		if ids[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		ids[c.ID] = true
	}
	// adaptive consumes every axis: 2 workloads × 2 points × 2 pds × 2 ops.
	if counts["adaptive"] != 16 {
		t.Errorf("adaptive cells = %d, want 16", counts["adaptive"])
	}
	// chess ignores op: 2 × 2 × 2.
	if counts["chess"] != 8 {
		t.Errorf("chess cells = %d, want 8", counts["chess"])
	}
	// contest ignores op, s and pd: 2 workloads × 2 distinct n.
	if counts["contest"] != 4 {
		t.Errorf("contest cells = %d, want 4", counts["contest"])
	}
}

// TestExpandSizesFromConsumedAxes expands specs whose full axis product
// far exceeds the cells their tool makes: the room the plan takes
// follows the cells it holds, not the product.
func TestExpandSizesFromConsumedAxes(t *testing.T) {
	pctSpec := func(points, pds int, point func(k int) Point) *Spec {
		s := &Spec{
			Name: "big", Seed: 1, Workloads: []WorkloadSpec{{Name: "spin"}},
			Ops: []string{"cyclic"}, Tools: []ToolSpec{{Name: "pct"}},
		}
		for k := 1; k <= points; k++ {
			s.Points = append(s.Points, point(k))
		}
		for k := 1; k <= pds; k++ {
			s.PDs = append(s.PDs, PDSpec{Name: "p" + strconv.Itoa(k)})
		}
		return s
	}
	for _, tc := range []struct {
		name          string
		spec          *Spec
		cells, maxCap int
	}{
		// pct ignores op, s and pd: one cell per distinct n.
		{"distinct n", pctSpec(500, 500, func(k int) Point { return Point{N: k, S: 1} }), 500, 500},
		// Points that differ only in s collapse into one cell; the room
		// reserved for them stops at maxPlanHint.
		{"one n", pctSpec(2000, 1, func(k int) Point { return Point{N: 1, S: k} }), 1, maxPlanHint},
	} {
		cells := tc.spec.Expand()
		if len(cells) != tc.cells || cap(cells) > tc.maxCap {
			t.Errorf("%s: %d cells in room for %d, want %d in room for at most %d",
				tc.name, len(cells), cap(cells), tc.cells, tc.maxCap)
		}
	}
}

func TestExpandSeedsStableUnderMatrixGrowth(t *testing.T) {
	s := smokeSpec()
	before := map[string]uint64{}
	for _, c := range s.Expand() {
		before[c.ID] = c.Seed
	}
	s.Workloads = append(s.Workloads, WorkloadSpec{Name: "prodcons"})
	s.Points = append(s.Points, Point{N: 2, S: 4})
	for _, c := range s.Expand() {
		if seed, ok := before[c.ID]; ok && seed != c.Seed {
			t.Fatalf("cell %s seed shifted %d -> %d after matrix growth", c.ID, seed, c.Seed)
		}
	}
}

func TestRunValidatesHandBuiltSpec(t *testing.T) {
	// The facade path (ptest.RunSuite) hands Run a spec that never went
	// through Parse; a typoed op must error, not silently run roundrobin.
	s := smokeSpec()
	s.Ops = []string{"cylic"}
	if _, err := Run(s, nil); err == nil || !strings.Contains(err.Error(), "cylic") {
		t.Fatalf("typoed op accepted: %v", err)
	}
	// And an empty hand-built spec gets defaults, not zero trials.
	s2 := &Spec{
		Name:      "bare",
		Workloads: []WorkloadSpec{{Name: "spin"}},
		Ops:       []string{"roundrobin"},
		Points:    []Point{{N: 1, S: 2}},
		Tools:     []ToolSpec{{Name: "adaptive"}},
		MaxSteps:  100000,
	}
	rep, err := Run(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0].Summary.Trials != 5 {
		t.Fatalf("default trials not applied: %+v", rep.Cells[0].Summary)
	}
}

func TestRunDoesNotMutateCallerSpec(t *testing.T) {
	// RunContext works on a shallow copy; defaulting must not write
	// through shared backing arrays into the caller's spec.
	s := &Spec{
		Name:      "caller",
		Workloads: []WorkloadSpec{{Name: "spin"}},
		Ops:       []string{"roundrobin"},
		Points:    []Point{{N: 1, S: 2}},
		Tools:     []ToolSpec{{Name: "adaptive"}},
		MaxSteps:  100000,
	}
	digestBefore := s.Digest()
	if _, err := Run(s, nil); err != nil {
		t.Fatal(err)
	}
	if s.Workloads[0].Rounds != 0 || s.Trials != 0 {
		t.Fatalf("caller's spec mutated: %+v (trials %d)", s.Workloads[0], s.Trials)
	}
	if s.Digest() != digestBefore {
		t.Fatal("caller's spec digest changed across Run")
	}
}

func TestDigestIgnoresParallelism(t *testing.T) {
	a, b := smokeSpec(), smokeSpec()
	b.CellParallelism, b.TrialParallelism = -1, 4
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on parallelism knobs")
	}
	b.Trials = 99
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to trial count")
	}
}

// canonicalBytes runs the spec and renders the canonical report.
func canonicalBytes(t *testing.T, s *Spec) []byte {
	t.Helper()
	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Write(&buf, report.Canonical(rep)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunDeterministicAcrossRunsAndParallelism(t *testing.T) {
	seq := smokeSpec()
	first := canonicalBytes(t, seq)
	second := canonicalBytes(t, seq)
	if !bytes.Equal(first, second) {
		t.Fatal("two sequential runs differ")
	}

	par := smokeSpec()
	par.CellParallelism = -1
	par.TrialParallelism = 2
	parallel := canonicalBytes(t, par)
	if !bytes.Equal(first, parallel) {
		t.Fatal("parallel run differs from sequential (modulo timing)")
	}
}

func TestRunFindsSeededFault(t *testing.T) {
	rep, err := Run(smokeSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Bugs == 0 {
		t.Fatal("no cell found the armed GC fault")
	}
	// The clean spin workload must not report bugs.
	for _, c := range rep.Cells {
		if c.Workload == "spin" && c.Summary.Bugs != 0 {
			t.Fatalf("clean workload reported bugs: %+v", c)
		}
	}
	if rep.SpecDigest == "" || rep.SchemaVersion != report.SchemaVersion {
		t.Fatalf("report header incomplete: %+v", rep)
	}
}

func TestJSONLStreamsInPlanOrder(t *testing.T) {
	s := smokeSpec()
	s.CellParallelism = -1 // exercise the reorder buffer
	var jsonl bytes.Buffer
	rep, err := Run(s, &jsonl)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&jsonl)
	i := 0
	for sc.Scan() {
		var cell report.Cell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if cell.ID != rep.Cells[i].ID {
			t.Fatalf("line %d is %s, want %s", i, cell.ID, rep.Cells[i].ID)
		}
		i++
	}
	if i != len(rep.Cells) {
		t.Fatalf("JSONL has %d lines, report %d cells", i, len(rep.Cells))
	}
}

func TestPDSpecDistribution(t *testing.T) {
	if (PDSpec{Builtin: "uniform"}).Distribution() != nil {
		t.Fatal("uniform must resolve to nil")
	}
	if (PDSpec{Builtin: "pcore"}).Distribution() == nil {
		t.Fatal("pcore builtin empty")
	}
	inline := PDSpec{Dist: map[string]map[string]float64{"^": {"TC": 1}}}
	d := inline.Distribution()
	if d["^"]["TC"] != 1 {
		t.Fatalf("inline distribution lost: %v", d)
	}
}

package coverage

import (
	"strings"
	"testing"

	"repro/internal/pfa"
	"repro/internal/stats"
)

func pcorePFA(t *testing.T) *pfa.PFA {
	t.Helper()
	p, err := pfa.PCore()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceCoverage(t *testing.T) {
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(0, "TD")
	cov := tr.ServiceCoverage([]string{"TC", "TD", "TS", "TR"})
	if cov != 0.5 {
		t.Fatalf("coverage %v", cov)
	}
	if tr.ServiceCoverage(nil) != 0 {
		t.Fatal("empty alphabet coverage nonzero")
	}
	if tr.ServiceCount("TC") != 1 {
		t.Fatal("count wrong")
	}
}

func TestTransitionCoverageFullWalk(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	// Issue every edge of Figure 5 once on a single logical task:
	// start>TC, TC>TCH, TCH>TCH, TCH>TS, TS>TR, TR>TCH, TCH>TD restarts...
	seq := []string{
		"TC", "TCH", "TCH", "TS", "TR", "TCH", "TD", // covers 7 edges
		"TC", "TS", "TR", "TS", "TR", "TD", // TC>TS, TR>TS, TR>TD
		"TC", "TY", // TC>TY
		"TC", "TCH", "TY", // TCH>TY
		"TC", "TD", // TC>TD
		"TC", "TS", "TR", "TY", // TR>TY
		"TC", "TCH", "TD", // TCH>TD (already), fine
	}
	for _, s := range seq {
		tr.Observe(0, s)
	}
	cov := tr.TransitionCoverage(p)
	if cov != 1.0 {
		t.Fatalf("transition coverage %v, want 1.0", cov)
	}
}

func TestTransitionCoveragePartial(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(0, "TD")
	cov := tr.TransitionCoverage(p)
	// 2 of 14 edges.
	want := 2.0 / 14.0
	if cov < want-1e-9 || cov > want+1e-9 {
		t.Fatalf("coverage %v, want %v", cov, want)
	}
}

func TestPerTaskTransitionTracking(t *testing.T) {
	tr := NewTracker()
	// Task 0: TC then TD; task 1: TC then TS. The TD must chain from
	// task 0's TC, not task 1's TS.
	tr.Observe(0, "TC")
	tr.Observe(1, "TC")
	tr.Observe(1, "TS")
	tr.Observe(0, "TD")
	if tr.transitionCount("TC", "TD") != 1 {
		t.Fatalf("transitions %v", tr.TopTransitions(100))
	}
	if tr.transitionCount("TS", "TD") != 0 {
		t.Fatal("cross-task chaining")
	}
}

func TestPairCoverage(t *testing.T) {
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(1, "TC") // pair TC|TC
	tr.Observe(1, "TS") // same task: no pair
	tr.Observe(0, "TS") // pair TS|TS
	if tr.PairCount() != 2 {
		t.Fatalf("pairs %d", tr.PairCount())
	}
}

func TestSummarize(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	rng := stats.New(3)
	pat, err := p.Generate(rng, 50, pfa.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pat.Symbols {
		tr.Observe(0, s)
	}
	sum := tr.Summarize(p)
	if sum.Commands != 50 {
		t.Fatalf("commands %d", sum.Commands)
	}
	if sum.Services <= 0 || sum.Services > 1 {
		t.Fatalf("services %v", sum.Services)
	}
	if sum.Transitions <= 0 || sum.Transitions > 1 {
		t.Fatalf("transitions %v", sum.Transitions)
	}
	if !strings.Contains(sum.String(), "commands=50") {
		t.Fatalf("string %q", sum.String())
	}
}

func TestTopTransitions(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		tr.Observe(0, "TC")
		tr.Observe(0, "TD")
	}
	top := tr.TopTransitions(1)
	if len(top) != 1 {
		t.Fatalf("top %v", top)
	}
	// TD>TC appears twice, ^>TC once, TC>TD three times.
	if !strings.HasPrefix(top[0], "TC>TD 3") {
		t.Fatalf("top %v", top)
	}
	if n := len(tr.TopTransitions(100)); n != 3 {
		t.Fatalf("all transitions %d", n)
	}
}

func TestUniformVsSkewedCoverageShape(t *testing.T) {
	// The distribution-influence claim (paper future work): a uniform PD
	// reaches full transition coverage with fewer commands than a heavily
	// skewed one. Verify the shape on a fixed budget.
	uniform, err := pfa.FromRegex(pfa.PCoreRE, nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := pfa.FromRegex(pfa.PCoreRE, pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
		"TCH":          {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := func(p *pfa.PFA, seed uint64) float64 {
		tr := NewTracker()
		rng := stats.New(seed)
		for i := 0; i < 10; i++ {
			pat, err := p.Generate(rng, 30, pfa.DefaultGenOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range pat.Symbols {
				tr.Observe(i, s)
			}
		}
		return tr.TransitionCoverage(p)
	}
	covUniform := cov(uniform, 1)
	covSkewed := cov(skewed, 1)
	if covUniform <= covSkewed {
		t.Fatalf("uniform coverage %.3f not above skewed %.3f", covUniform, covSkewed)
	}
}

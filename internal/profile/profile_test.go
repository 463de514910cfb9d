package profile

import (
	"testing"

	"repro/internal/app"
	"repro/internal/committer"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/pfa"
	"repro/internal/platform"
	"repro/internal/recording"
	"repro/internal/stats"
)

func TestCollectorThroughPlatform(t *testing.T) {
	// Drive the slave with PFA-generated patterns (standing in for real
	// usage), collect the executed traces, learn the PD back and check
	// it approximates the driving distribution.
	plat, err := platform.New(platform.Config{Factory: app.SpinFactory()})
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Shutdown()

	col := NewCollector()
	col.Attach(plat.Committee)

	machine, err := pfa.PCore()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.New(9)
	pats, err := machine.GenerateSet(rng, 8, 40, pfa.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]string, len(pats))
	for i, p := range pats {
		sources[i] = p.Symbols
	}
	merged, err := pattern.Merge(sources, pattern.OpRoundRobin, nil, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmt := committer.New(plat.Client, merged, merged.PerTask(), nil, recording.NewJournal(0), plat.Now)
	plat.Master.Spawn("driver", cmt.ThreadBody)
	plat.RunUntilQuiescent(2_000_000)
	if !cmt.Finished {
		t.Fatal("driver did not finish")
	}

	if col.Commands() != merged.Len() {
		t.Fatalf("collected %d of %d commands", col.Commands(), merged.Len())
	}
	learned, res, err := col.Learn(pfa.PCoreRE, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedTraces != 0 {
		t.Fatalf("%d traces rejected", res.RejectedTraces)
	}
	// The learned distribution must build a valid PFA and be closer to
	// Figure 5 than chance (loose bound: 320 samples of a 6-symbol
	// alphabet leave real variance).
	if _, err := pfa.FromRegex(pfa.PCoreRE, learned); err != nil {
		t.Fatal(err)
	}
	if d := Divergence(learned, pfa.PCoreDistribution()); d > 0.35 {
		t.Fatalf("learned PD diverges by %.3f from the driving PD", d)
	}
}

func TestLearnRejectsBadExpression(t *testing.T) {
	if _, _, err := Learn("(((", nil, 0.5); err == nil {
		t.Fatal("bad RE accepted")
	}
}

func TestLearnSkipsIllegalTraces(t *testing.T) {
	_, res, err := Learn(pfa.PCoreRE, [][]string{
		{"TC", "TD"},
		{"TD", "TC"}, // illegal: delete before create
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != 1 || res.RejectedTraces != 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestDivergence(t *testing.T) {
	a := pfa.Distribution{"TC": {"TD": 0.5, "TY": 0.5}}
	b := pfa.Distribution{"TC": {"TD": 0.8, "TY": 0.2}}
	if d := Divergence(a, b); d < 0.29 || d > 0.31 {
		t.Fatalf("divergence %v", d)
	}
	if Divergence(a, a) != 0 {
		t.Fatal("self-divergence nonzero")
	}
	// Asymmetric keys: missing entries read as zero.
	c := pfa.Distribution{"TS": {"TR": 1}}
	if d := Divergence(a, c); d != 1 {
		t.Fatalf("divergence %v", d)
	}
}

func TestAdaptiveLoopEndToEnd(t *testing.T) {
	// The full adaptive loop: exploratory uniform campaign → learn PD
	// from what actually executed → the learned PD drives a new campaign
	// that still covers the full service alphabet.
	explore, err := core.AdaptiveTest(core.Config{
		RE: pfa.PCoreRE, // uniform PD
		N:  8, S: 24, Op: pattern.OpRoundRobin, Seed: 4,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]string
	for _, tp := range explore.Merged.PerTask() {
		traces = append(traces, tp)
	}
	learned, _, err := Learn(pfa.PCoreRE, traces, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.AdaptiveTest(core.Config{
		RE: pfa.PCoreRE, PD: learned,
		N: 8, S: 24, Op: pattern.OpRoundRobin, Seed: 5,
		Factory: app.SpinFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("bug %v", out.Bug)
	}
	if out.Coverage.Services < 1 {
		t.Fatalf("learned-PD campaign lost service coverage: %v", out.Coverage)
	}
}

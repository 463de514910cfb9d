package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/suite"
)

// sweepSpec is the sweep-local matrix, drawn from
// examples/suite/paper-sweep.json: all five tool arms over quicksort,
// philosophers, prodcons and inversion at n=8 and n=16, two merge ops
// (56 cells). The philosophers' and the inversion hog's budgets are cut
// from 100000 so that neither the noise-driven tools (contest, pct) nor
// the command-driven ones (adaptive, adaptive-refine, chess) fall below
// about a third of host time; at the paper-sweep budgets a handful of
// contest/pct philosophers cells take nearly all of it.
//
// The spec seed stays paper-sweep's 1 whatever the run seed: cell seeds
// derive from it, and with other seeds the bugs found, and with them the
// memory a chess exploration holds, change from run to run. The run seed
// only names the suite, so every run simulates exactly the same cycles.
func sweepSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"name":"sweep-local-%d","seed":1,"trials":10,"keep_going":true,"cell_parallelism":%d,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4,"gc_leak_every":2},{"name":"philosophers","rounds":200},
 {"name":"prodcons","items":10},{"name":"inversion","hog_bursts":2000,"misplace_priority_every":3}],
"ops":["roundrobin","random"],"points":[{"n":8,"s":16},{"n":16,"s":24}],
"tools":[{"name":"adaptive"},{"name":"adaptive","label":"adaptive-refine","refine":true,"alpha":0.5,"window":4},
 {"name":"contest","noise_p":0.2},{"name":"chess","preemption_bound":1,"max_schedules":128},{"name":"pct","depth":3}]}`,
		seed, runtime.NumCPU()))
}

// runSweepLocal runs one cold suite.RunContext after another, with no
// store: pcore, the tools, core and pfa do nearly all the work, and the
// store, dispatch and server are not involved.
func runSweepLocal(cfg config) (*outcome, error) {
	out := &outcome{}
	g := &out.gate
	js := sweepSpec(cfg.seed)
	var spec *suite.Spec
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, err := parseSpec(js)
		if err != nil {
			return nil, err
		}
		// Run the first cell of every tool arm once, so lazy set-up
		// (compiled PFAs, kernel pools, goroutine stacks) is paid here.
		warmed := map[string]bool{}
		for _, c := range s.Expand() {
			label := c.ID[strings.LastIndex(c.ID, "/")+1:]
			if warmed[label] {
				continue
			}
			warmed[label] = true
			if _, err := suite.ExecuteCell(s, c); err != nil {
				return nil, fmt.Errorf("warm-up cell %s: %w", c.ID, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		spec = s
	}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}

	// sweeps runs the phase; exec, when set, wraps every cell.
	type sweepRun struct {
		rep *report.Report
		ms  float64
	}
	sweeps := func(d time.Duration, opts func(i int) (suite.Options, func())) (runs []sweepRun, wall, cpu time.Duration) {
		cpu0, t0 := cpuTime(), time.Now()
		for i := 0; time.Since(t0) < d; i++ {
			o, done := opts(i)
			s := time.Now()
			rep, err := suite.RunContext(context.Background(), spec, nil, o)
			elapsed := ms(time.Since(s))
			done()
			if err != nil {
				g.fail(len(spec.Expand()), "sweep %d: %v", i, err)
				continue
			}
			runs = append(runs, sweepRun{rep, elapsed})
		}
		return runs, time.Since(t0), cpuTime() - cpu0
	}
	untraced := func(int) (suite.Options, func()) { return suite.Options{}, func() {} }
	runs, wall, cpu := sweeps(d, untraced)

	want, err := reference(spec)
	if err != nil {
		return nil, err
	}
	// check gates a phase's sweeps against the sequential reference.
	check := func(phase string, runs []sweepRun) (lat []float64, cells int) {
		for i, r := range runs {
			if g.compare(fmt.Sprintf("%s sweep %d", phase, i), len(r.rep.Cells), canonicalBytes(r.rep), want) {
				lat = append(lat, r.ms)
				cells += len(r.rep.Cells)
			}
		}
		return lat, cells
	}
	lat, cells := check("timed", runs)
	out.e2e = endToEnd(setups, lat, cells, wall, cpu)
	if len(runs) > 0 {
		t := runs[0].rep.Totals
		out.notes = append(out.notes, fmt.Sprintf("sweep totals (repeat exactly for a seed): cells=%d cycles=%d commands=%d bugs=%d",
			t.Cells, t.TotalCycles, t.TotalCommands, t.Bugs))
	}
	if !cfg.trace {
		return out, nil
	}

	rec := newRecorder()
	var mu sync.Mutex
	var execs []execRecord
	traced := func(i int) (suite.Options, func()) {
		token := fmt.Sprintf("traced-%d", i)
		root := rec.start("job", 0, token)
		exec := func(_ context.Context, s *suite.Spec, c suite.Cell) (report.Cell, error) {
			sp := rec.start("tool.exec", root.s.ID, token)
			rc, err := suite.ExecuteCell(s, c)
			sp.finish()
			if err == nil {
				mu.Lock()
				execs = append(execs, execRecord{rc.Tool, sp.s.dur() / 1e3, rc.Summary})
				mu.Unlock()
			}
			return rc, err
		}
		return suite.Options{Exec: exec}, root.finish
	}
	truns, _, _ := sweeps(d, traced)
	tlat, tcells := check("traced", truns)
	t := tracedPhase{jobs: tlat, untracedP50: median(lat), cells: tcells, execs: execs, spans: rec.snapshot()}
	for i, r := range truns {
		if i == 0 {
			t.firstCycles = r.rep.Totals.TotalCycles
		}
		t.pfaCompiles += r.rep.PFACompiles
		t.reportBytes = append(t.reportBytes, float64(len(canonicalBytes(r.rep))))
	}
	if err := writeSpans(cfg, t.spans); err != nil {
		return nil, err
	}
	p, err := runProbes(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.layers = layerRows(t, p)
	return out, nil
}

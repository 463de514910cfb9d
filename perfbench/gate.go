package main

import (
	"bytes"
	"fmt"

	"repro/internal/report"
	"repro/internal/suite"
)

// gate is the correctness check every operation passes before its cells
// count. Cells are attempted; a cell fails when its job errored, was
// refused or cancelled, or its canonical report differs from the local
// sequential run of the same spec.
type gate struct {
	attempted, failed int
	problems          []string
}

// fail records cells that did not complete correctly.
func (g *gate) fail(cells int, format string, args ...any) {
	g.attempted += cells
	g.failed += cells
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// compare checks one job's canonical report against the reference and
// reports whether its cells passed.
func (g *gate) compare(what string, cells int, got, want []byte) bool {
	if !bytes.Equal(got, want) {
		g.fail(cells, "%s: canonical report differs from the local sequential run at byte %d of %d",
			what, firstDiff(got, want), len(want))
		return false
	}
	g.attempted += cells
	return true
}

func (g *gate) correct() bool { return g.attempted > 0 && g.failed == 0 }

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// canonicalBytes renders a report exactly as the hub serves
// GET /api/v1/jobs/{id}/report?canonical=1.
func canonicalBytes(rep *report.Report) []byte {
	var buf bytes.Buffer
	_ = report.Write(&buf, report.Canonical(rep))
	return buf.Bytes()
}

// reference runs spec locally and sequentially and returns its canonical
// report: the bytes every timed execution of the spec must reproduce.
func reference(spec *suite.Spec) ([]byte, error) {
	s := *spec
	s.CellParallelism, s.TrialParallelism = 0, 0
	rep, err := suite.Run(&s, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", spec.Name, err)
	}
	return canonicalBytes(rep), nil
}

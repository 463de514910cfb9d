// Tests for a job fanned out at full width: pending cells are granted
// by job priority, then job enqueue order, then plan order; and when
// the fleet leaves mid-job, the hub's in-process fallback never runs
// more of the job's cells at once than its cell_parallelism allows.
package dispatch

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/suite"
)

func TestGrantOrderIsPriorityThenJobFIFOThenPlan(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w := d.Register("fleet").WorkerID

	// A priority-0 sweep enqueues first; an urgent job follows, its cells
	// arriving out of plan order as a wide plan's waiters race; then one
	// more job at each priority.
	enqueueCells(d, "low-1", 0, "a", "b")
	urgent := d.newJob("high-1", "t1", 10, "dg")
	d.enqueue(urgent, "z", 1)
	d.enqueue(urgent, "y", 0)
	enqueueCells(d, "low-2", 0, "c")
	enqueueCells(d, "high-2", 10, "x")

	want := []string{"high-1/y", "high-1/z", "high-2/x", "low-1/a", "low-1/b", "low-2/c"}
	var got []string
	resp, err := d.LeaseBatch(w, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range resp.Grants {
		got = append(got, g.JobID+"/"+g.CellID)
	}
	// Single-cell polls continue in the same order.
	for len(got) < len(want) {
		g := mustAcquire(t, d, w)
		got = append(got, g.JobID+"/"+g.CellID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("grant order:\n got %v\nwant %v", got, want)
	}
}

// waitPending blocks until n cells wait at the dispatcher for a grant.
func waitPending(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.Metrics().CellsPending != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d cells pending, want %d", d.Metrics().CellsPending, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLocalFallbackHonorsCellParallelismWhenFleetLeaves(t *testing.T) {
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.CellParallelism = 1
	cells := spec.Expand()
	direct, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Write(&want, report.Canonical(direct)); err != nil {
		t.Fatal(err)
	}

	d, _ := newTestDispatcher(t, Config{})
	var running, peak atomic.Int32
	d.execLocal = func(sp *suite.Spec, c suite.Cell) (report.Cell, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			// Another cell raised the peak meanwhile; retry against it.
		}
		// Hold the slot long enough that an unbounded fallback's waiters
		// would overlap here.
		time.Sleep(2 * time.Millisecond)
		return suite.ExecuteCell(sp, c)
	}
	w := d.Register("leaving").WorkerID

	// The plan runs at full width, as the hub runs it with a live fleet.
	plan := mustPlan(t, spec)
	wide := plan.WithCellParallelism(len(cells))
	type result struct {
		rep *report.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := wide.Run(context.Background(), nil,
			suite.Options{Exec: d.Executor("j1", "t1", 0, plan)})
		done <- result{rep, err}
	}()
	waitPending(t, d, len(cells))

	// The worker completes two cells, then leaves holding a third.
	resp, err := d.LeaseBatch(w, 3, nil)
	if err != nil || len(resp.Grants) != 3 {
		t.Fatalf("batch = %+v (%v), want 3 grants", resp, err)
	}
	var comps []CompleteRequest
	for _, g := range resp.Grants[:2] {
		c, ok := spec.CellByID(g.CellID)
		if !ok {
			t.Fatalf("grant names unknown cell %q", g.CellID)
		}
		res, err := suite.ExecuteCell(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, CompleteRequest{LeaseID: g.LeaseID, JobID: g.JobID, CellID: g.CellID, Cell: res})
	}
	if resp, err := d.LeaseBatch(w, 0, comps); err != nil || len(resp.Acks) != 2 ||
		resp.Acks[0] != CompleteAccepted || resp.Acks[1] != CompleteAccepted {
		t.Fatalf("completions = %+v (%v), want 2 accepted", resp, err)
	}
	if !d.Deregister(w) {
		t.Fatal("Deregister(known) = false")
	}

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never finished after its fleet left")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("in-process fallback ran %d cells at once, want 1 (cell_parallelism)", p)
	}
	if got, localized := d.Metrics().LocalCells, uint64(len(cells)-2); got != localized {
		t.Errorf("LocalCells = %d, want %d", got, localized)
	}
	var got bytes.Buffer
	if err := report.Write(&got, report.Canonical(res.rep)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("degraded report differs from the local run:\nwant:\n%s\ngot:\n%s", want.Bytes(), got.Bytes())
	}
}

// Tests for a job fanned out at full width and for the unit table it
// waits in: pending cells are granted by their best waiter's job
// priority, then job order, then plan order; a cell two jobs miss is
// one unit, ranked by the better job; the hub slots execute at
// GOMAXPROCS whatever the spec's cell_parallelism; when the fleet
// leaves mid-job, the slots finish the job; and Close joins every
// goroutine New started.
package dispatch

import (
	"bytes"
	"context"
	"runtime"
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
	urgent := testJob("high-1", 10)
	d.join(waiter{j: urgent, pos: 1}, "z", "z")
	d.join(waiter{j: urgent, pos: 0}, "y", "y")
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

// grantJobs leases every pending cell one at a time and returns each
// grant as job/cell.
func grantJobs(t *testing.T, d *Dispatcher, w string) []string {
	t.Helper()
	var got []string
	for {
		g, ok := poll(t, d, w)
		if !ok {
			return got
		}
		got = append(got, g.JobID+"/"+g.CellID)
	}
}

// TestSharedUnitInheritsBestWaitersPriority: a cell a batch job missed
// first is one unit with the admin job that misses it later, and the
// unit is granted at the admin's rank, ahead of a default job's cell,
// naming the admin's job.
func TestSharedUnitInheritsBestWaitersPriority(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w := d.Register("fleet").WorkerID
	batch, def, admin := testJob("batch", -10), testJob("default", 0), testJob("admin", 10)
	shared, _, _ := d.join(waiter{j: batch, pos: 0}, "k-shared", "shared")
	d.join(waiter{j: def, pos: 0}, "k-mid", "mid")
	if u, _, _ := d.join(waiter{j: admin, pos: 3}, "k-shared", "shared"); u != shared {
		t.Fatal("a second job's miss of the same key made a second unit")
	}
	want := "admin/shared default/mid"
	if got := strings.Join(grantJobs(t, d, w), " "); got != want {
		t.Fatalf("grant order %q, want %q", got, want)
	}
	if m := d.Metrics(); m.LeasesGranted != 2 {
		t.Fatalf("LeasesGranted = %d, want 2: one per key", m.LeasesGranted)
	}
}

// TestCancelledLeaderHandsUnitToFollower: once the best job waiting on
// a unit is cancelled, the unit ranks and is granted as the job still
// waiting on it, and its result still reaches that job.
func TestCancelledLeaderHandsUnitToFollower(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w := d.Register("fleet").WorkerID
	leader, follower, other := testJob("leader", 10), testJob("follower", 0), testJob("other", 5)
	u, _, _ := d.join(waiter{j: leader, pos: 0}, "k-shared", "shared")
	d.join(waiter{j: follower, pos: 2}, "k-shared", "shared")
	d.join(waiter{j: other, pos: 0}, "k-other", "other")

	if _, err := d.leave(u, waiter{j: leader, pos: 0}); err == nil {
		t.Fatal("the cancelled leader got no interruption")
	}
	grants, err := d.LeaseBatch(w, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range grants.Grants {
		got = append(got, g.JobID+"/"+g.CellID)
	}
	if want := "other/other follower/shared"; strings.Join(got, " ") != want {
		t.Fatalf("grant order %v, want %q", got, want)
	}
	if ack := complete(t, d, w, completion(grants.Grants[1], report.Cell{ID: "shared", WallMS: 3})); ack != CompleteAccepted {
		t.Fatalf("complete = %s", ack)
	}
	rc, err := d.leave(u, waiter{j: follower, pos: 2})
	if err != nil || rc.WallMS != 3 {
		t.Fatalf("follower got %+v, %v; want the completed cell", rc, err)
	}
}

// assertCanonical fails the test unless rep's canonical bytes are a
// local sequential run's of spec.
func assertCanonical(t *testing.T, spec *suite.Spec, rep *report.Report) {
	t.Helper()
	direct, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := report.Write(&want, report.Canonical(direct)); err != nil {
		t.Fatal(err)
	}
	if err := report.Write(&got, report.Canonical(rep)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("report differs from the local run:\nwant:\n%s\ngot:\n%s", want.Bytes(), got.Bytes())
	}
}

// runWide runs plan at full width through d's executor, as the hub runs
// a job, and delivers the outcome on the returned channel.
func runWide(d *Dispatcher, plan *suite.Plan) <-chan runResult {
	done := make(chan runResult, 1)
	go func() {
		rep, err := plan.WithCellParallelism(len(plan.Cells())).Run(context.Background(), nil,
			suite.Options{Exec: d.Executor("j1", "t1", 0, plan)})
		done <- runResult{rep, err}
	}()
	return done
}

type runResult struct {
	rep *report.Report
	err error
}

// awaitRun waits for runWide's outcome and fails on an error.
func awaitRun(t *testing.T, done <-chan runResult) *report.Report {
	t.Helper()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.rep
	case <-time.After(60 * time.Second):
		t.Fatal("the job never finished")
	}
	return nil
}

// TestHubSlotsRunAtGOMAXPROCSWhateverCellParallelism: with no fleet,
// the hub executes at most GOMAXPROCS cells at once and reaches that
// width, whether the spec asks for one cell at a time or one per CPU.
func TestHubSlotsRunAtGOMAXPROCSWhateverCellParallelism(t *testing.T) {
	for _, cp := range []int{1, -1} {
		spec, err := suite.Parse(strings.NewReader(benchSpec))
		if err != nil {
			t.Fatal(err)
		}
		spec.CellParallelism = cp
		plan := mustPlan(t, spec)
		want := int32(min(runtime.GOMAXPROCS(0), len(plan.Cells())))

		d := New(Config{})
		var running, peak atomic.Int32
		d.execLocal = func(sp *suite.Spec, c suite.Cell) (report.Cell, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				// Another cell raised the peak meanwhile; retry against it.
			}
			// Hold the slot until the slots have all been busy at once, so
			// the peak shows their number rather than scheduling luck.
			for deadline := time.Now().Add(5 * time.Second); peak.Load() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			return suite.ExecuteCell(sp, c)
		}
		rep := awaitRun(t, runWide(d, plan))
		d.Close()
		if p := peak.Load(); p != want {
			t.Errorf("cell_parallelism %d: the hub ran %d cells at once, want %d (GOMAXPROCS)", cp, p, want)
		}
		if m := d.Metrics(); m.LocalCells != uint64(len(plan.Cells())) {
			t.Errorf("cell_parallelism %d: LocalCells = %d, want %d", cp, m.LocalCells, len(plan.Cells()))
		}
		assertCanonical(t, spec, rep)
	}
}

// TestFleetLeavingMidJobFinishesOnHubSlots: a worker completes two
// cells of a job and leaves holding a third; the hub slots run every
// cell it left, and the report is the local run's.
func TestFleetLeavingMidJobFinishesOnHubSlots(t *testing.T) {
	plan := benchPlan(t)
	cells := plan.Cells()
	d := New(Config{})
	t.Cleanup(d.Close)
	w := d.Register("leaving").WorkerID
	done := runWide(d, plan)
	waitPending(t, d, len(cells))

	resp, err := d.LeaseBatch(w, 3, nil)
	if err != nil || len(resp.Grants) != 3 {
		t.Fatalf("batch = %+v (%v), want 3 grants", resp, err)
	}
	var comps []CompleteRequest
	for _, g := range resp.Grants[:2] {
		i, ok := plan.CellIndex(g.CellID)
		if !ok {
			t.Fatalf("grant names unknown cell %q", g.CellID)
		}
		res, err := suite.ExecuteCell(plan.Spec(), cells[i])
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, completion(g, res))
	}
	if resp, err := d.LeaseBatch(w, 0, comps); err != nil || len(resp.Acks) != 2 ||
		resp.Acks[0] != CompleteAccepted || resp.Acks[1] != CompleteAccepted {
		t.Fatalf("completions = %+v (%v), want 2 accepted", resp, err)
	}
	if !d.Deregister(w) {
		t.Fatal("Deregister(known) = false")
	}

	rep := awaitRun(t, done)
	if got, left := d.Metrics().LocalCells, uint64(len(cells)-2); got != left {
		t.Errorf("LocalCells = %d, want %d", got, left)
	}
	assertCanonical(t, plan.Spec(), rep)
}

// waitGoroutines waits until at most n goroutines run.
func waitGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseJoinsSlotsAndReaper: Close may come before any job and may
// come twice; each time it returns, every goroutine New started has
// exited, after a job as before one.
func TestCloseJoinsSlotsAndReaper(t *testing.T) {
	before := runtime.NumGoroutine()
	d := New(Config{})
	d.Close()
	waitGoroutines(t, before, "first Close before any job")
	d.Close()
	waitGoroutines(t, before, "second Close")

	d = New(Config{})
	awaitRun(t, runWide(d, benchPlan(t)))
	d.Close()
	waitGoroutines(t, before, "Close after a job")
}

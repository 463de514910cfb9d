// Fake-clock unit tests for the hub-side dispatcher: lease expiry and
// retry, attempt budgets, work stealing, duplicate and orphan
// completions, dead-worker reaping and empty-fleet degradation to the
// hub slots — stepped deterministically, with no sleeps except where a
// slot's execution is awaited.
package dispatch

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
)

// newTestDispatcher builds a dispatcher on a fake wall clock with
// short, round TTLs. The reaper and the hub slots are stopped
// immediately so every expiry pass in a test is an explicit,
// deterministic Reap call and no unit runs on the hub.
func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *clock.FakeWall) {
	t.Helper()
	d, fw := newSlotDispatcher(t, cfg)
	d.Close()
	return d, fw
}

// newSlotDispatcher is newTestDispatcher with the reaper and the hub
// slots left running until the test ends: the reaper wakes only when
// the test advances the clock, and the slots execute what the fleet
// cannot take.
func newSlotDispatcher(t *testing.T, cfg Config) (*Dispatcher, *clock.FakeWall) {
	t.Helper()
	fw := clock.NewFakeWall(time.Time{})
	cfg.Clock = fw
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.WorkerTTL == 0 {
		cfg.WorkerTTL = 30 * time.Second
	}
	if cfg.RetryBaseDelay == 0 {
		cfg.RetryBaseDelay = time.Second
	}
	if cfg.RetryMaxDelay == 0 {
		cfg.RetryMaxDelay = 4 * time.Second
	}
	if cfg.StealAge == 0 {
		cfg.StealAge = 5 * time.Second
	}
	d := New(cfg)
	t.Cleanup(d.Close)
	return d, fw
}

// testJob is a job of tenant "t1" whose cells a test joins to the unit
// table by hand; its grants carry digest "dg". It has no plan, so no
// hub slot may run its units.
func testJob(id string, priority int) *jobExec {
	return &jobExec{id: id, tenant: "t1", priority: priority, digest: "dg"}
}

// enqueueCells joins the cells of one job of tenant "t1" to the unit
// table, in plan order, as the job's waiters would. Each cell's key is
// its ID.
func enqueueCells(d *Dispatcher, jobID string, priority int, cellIDs ...string) []*unit {
	j := testJob(jobID, priority)
	units := make([]*unit, len(cellIDs))
	for i, id := range cellIDs {
		units[i], _, _ = d.join(waiter{j: j, pos: i}, id, id)
	}
	return units
}

// completion reports g's cell as executed with result c.
func completion(g Grant, c report.Cell) CompleteRequest {
	return CompleteRequest{LeaseID: g.LeaseID, JobID: g.JobID, CellID: g.CellID, Key: g.Key, Cell: c}
}

// keepAlive is a worker's empty lease:batch call: it grants nothing and
// only proves the worker alive.
func keepAlive(t *testing.T, d *Dispatcher, workerID string) {
	t.Helper()
	if _, err := d.LeaseBatch(workerID, 0, nil); err != nil {
		t.Fatalf("LeaseBatch(%s, 0, nil): %v", workerID, err)
	}
}

// poll is a single-cell lease:batch poll, a batch of one. ok=false
// means no work right now.
func poll(t *testing.T, d *Dispatcher, workerID string) (g Grant, ok bool) {
	t.Helper()
	resp, err := d.LeaseBatch(workerID, 1, nil)
	if err != nil {
		t.Fatalf("LeaseBatch(%s, 1): %v", workerID, err)
	}
	if len(resp.Grants) == 0 {
		return Grant{}, false
	}
	return resp.Grants[0], true
}

func mustAcquire(t *testing.T, d *Dispatcher, workerID string) Grant {
	t.Helper()
	g, ok := poll(t, d, workerID)
	if !ok {
		t.Fatalf("poll(%s): no grant, want one", workerID)
	}
	return g
}

// complete settles one completion as a pure lease:batch flush (max 0)
// and returns its ack.
func complete(t *testing.T, d *Dispatcher, workerID string, c CompleteRequest) CompleteStatus {
	t.Helper()
	resp, err := d.LeaseBatch(workerID, 0, []CompleteRequest{c})
	if err != nil {
		t.Fatalf("LeaseBatch(%s, 0, %s): %v", workerID, c.CellID, err)
	}
	return resp.Acks[0]
}

func resolved(u *unit) bool {
	select {
	case <-u.done:
		return true
	default:
		return false
	}
}

func TestExpiredLeaseRetriesOnAnotherWorker(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{})
	w1 := d.Register("first").WorkerID
	w2 := d.Register("second").WorkerID
	u := enqueueCells(d, "j1", 0, "cell-1")[0]

	g1 := mustAcquire(t, d, w1)
	if g1.CellID != "cell-1" || g1.Stolen {
		t.Fatalf("grant = %+v, want primary lease on cell-1", g1)
	}

	// The worker crashes: its lease deadline passes with no completion.
	fw.Advance(11 * time.Second)
	d.Reap()
	if m := d.Metrics(); m.LeasesExpired != 1 || m.LeaseRetries != 1 {
		t.Fatalf("after expiry: %+v, want 1 expired / 1 retried", m)
	}
	if resolved(u) {
		t.Fatal("unit resolved by expiry alone")
	}

	// The requeue is backoff-gated: an immediate poll gets nothing.
	if _, ok := poll(t, d, w2); ok {
		t.Fatal("granted before the retry backoff elapsed")
	}
	fw.Advance(2 * time.Second) // past the ≤1.25s jittered base delay
	g2 := mustAcquire(t, d, w2)
	if g2.CellID != "cell-1" || g2.LeaseID == g1.LeaseID {
		t.Fatalf("retry grant = %+v, want a fresh lease on cell-1", g2)
	}

	if st := complete(t, d, w2, completion(g2, report.Cell{ID: "cell-1"})); st != CompleteAccepted {
		t.Fatalf("complete = %s, want %s", st, CompleteAccepted)
	}
	if !resolved(u) || u.err != nil || u.result.ID != "cell-1" {
		t.Fatalf("unit not resolved remotely: err=%v result=%+v", u.err, u.result)
	}
	if m := d.Metrics(); m.RemoteCompletions != 1 || m.LocalCells != 0 {
		t.Fatalf("metrics = %+v, want 1 remote completion and no hub execution", m)
	}
}

// benchPlan resolves benchSpec, the dispatch tests' six-cell plan.
func benchPlan(t *testing.T) *suite.Plan {
	t.Helper()
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		t.Fatal(err)
	}
	return mustPlan(t, spec)
}

// TestAttemptBudgetExhaustionFallsBackToLocal: a cell that spent its
// attempt budget is granted to no worker again, and a hub slot runs it
// while the worker that failed it is still live.
func TestAttemptBudgetExhaustionFallsBackToLocal(t *testing.T) {
	d, fw := newSlotDispatcher(t, Config{MaxAttempts: 2})
	w1 := d.Register("flaky").WorkerID
	plan := benchPlan(t)
	c := plan.Cells()[0]
	type result struct {
		rc  report.Cell
		err error
	}
	done := make(chan result, 1)
	exec := d.Executor("j1", "t1", 0, plan)
	go func() {
		rc, err := exec(context.Background(), plan.Spec(), c)
		done <- result{rc, err}
	}()
	waitPending(t, d, 1)

	for attempt := 1; attempt <= 2; attempt++ {
		g := mustAcquire(t, d, w1)
		if g.CellID != c.ID || g.Key != plan.Keys()[0] {
			t.Fatalf("attempt %d granted %+v", attempt, g)
		}
		fw.Advance(11 * time.Second) // past LeaseTTL
		keepAlive(t, d, w1)          // the worker is alive, just never finishing
		d.Reap()
		if attempt == 1 {
			fw.Advance(2 * time.Second) // clear the retry backoff
		}
	}
	if _, ok := poll(t, d, w1); ok {
		t.Fatal("a cell past its attempt budget was granted to a worker again")
	}

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the cell never ran on a hub slot")
	}
	want, err := suite.ExecuteCell(plan.Spec(), c)
	if res.err != nil || err != nil {
		t.Fatalf("slot result err %v, direct err %v", res.err, err)
	}
	if res.rc.ID != want.ID || res.rc.Summary != want.Summary {
		t.Fatalf("slot ran %+v, want %+v", res.rc, want)
	}
	m := d.Metrics()
	if m.LeasesExpired != 2 || m.LeaseRetries != 1 || m.LocalCells != 1 || m.RemoteCompletions != 0 {
		t.Fatalf("metrics = %+v, want 2 expired / 1 retried / 1 hub execution", m)
	}
	if ws := d.Workers(); len(ws) != 1 || ws[0].ID != w1 {
		t.Fatalf("Workers() = %+v, want %s still live", ws, w1)
	}
}

func TestStolenLeaseAndDuplicateCompletionFirstWriterWins(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{})
	w1 := d.Register("slow").WorkerID
	w2 := d.Register("idle").WorkerID
	u := enqueueCells(d, "j1", 0, "cell-1")[0]

	g1 := mustAcquire(t, d, w1)

	// Too young to steal: the idle worker gets nothing.
	fw.Advance(3 * time.Second)
	keepAlive(t, d, w1)
	if _, ok := poll(t, d, w2); ok {
		t.Fatal("stole a lease younger than StealAge")
	}

	// Old enough: the idle worker gets a redundant copy.
	fw.Advance(3 * time.Second)
	keepAlive(t, d, w1)
	g2 := mustAcquire(t, d, w2)
	if !g2.Stolen || g2.CellID != "cell-1" {
		t.Fatalf("grant = %+v, want a stolen copy of cell-1", g2)
	}
	if m := d.Metrics(); m.LeasesStolen != 1 {
		t.Fatalf("LeasesStolen = %d, want 1", m.LeasesStolen)
	}

	// The thief completes first; the original holder's completion is a
	// deterministic duplicate (real executions are bit-identical — the
	// markers here only prove which writer won).
	first := report.Cell{ID: "cell-1", WallMS: 111}
	second := report.Cell{ID: "cell-1", WallMS: 222}
	if st := complete(t, d, w2, completion(g2, first)); st != CompleteAccepted {
		t.Fatalf("first complete = %s", st)
	}
	if st := complete(t, d, w1, completion(g1, second)); st != CompleteDuplicate {
		t.Fatalf("second complete = %s, want %s", st, CompleteDuplicate)
	}
	if u.result.WallMS != 111 {
		t.Fatalf("result WallMS = %v, want the first writer's 111", u.result.WallMS)
	}
	if m := d.Metrics(); m.RemoteCompletions != 1 || m.DuplicateCompletions != 1 {
		t.Fatalf("metrics = %+v, want 1 remote / 1 duplicate completion", m)
	}
}

func TestDeadWorkerIsReapedAndItsLeaseReassigned(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{WorkerTTL: 6 * time.Second, LeaseTTL: time.Minute}) // liveness beats deadline here
	w1 := d.Register("dying").WorkerID
	w2 := d.Register("healthy").WorkerID
	enqueueCells(d, "j1", 0, "cell-1")
	mustAcquire(t, d, w1)

	// Only the healthy worker calls across the TTL window.
	fw.Advance(4 * time.Second)
	keepAlive(t, d, w2)
	fw.Advance(4 * time.Second)
	keepAlive(t, d, w2)

	if _, err := d.LeaseBatch(w1, 1, nil); err == nil {
		t.Fatal("dead worker still leases, want unknown-worker error")
	}
	workers := d.Workers()
	if len(workers) != 1 || workers[0].ID != w2 {
		t.Fatalf("Workers() = %+v, want only %s", workers, w2)
	}
	if m := d.Metrics(); m.LeasesExpired != 1 || m.WorkersLive != 1 {
		t.Fatalf("metrics = %+v, want the dead worker's lease expired", m)
	}

	// The lease died with its worker long before its own deadline; after
	// backoff the healthy worker picks the cell up.
	fw.Advance(2 * time.Second)
	g := mustAcquire(t, d, w2)
	if g.CellID != "cell-1" || g.Stolen {
		t.Fatalf("reassigned grant = %+v, want primary lease on cell-1", g)
	}
}

// TestEmptyFleetLocalizesPendingCells: with no worker registered, the
// hub slots run every miss of a job at full width, and the report is
// the local run's.
func TestEmptyFleetLocalizesPendingCells(t *testing.T) {
	d, _ := newSlotDispatcher(t, Config{})
	plan := benchPlan(t)
	rep, err := plan.WithCellParallelism(len(plan.Cells())).Run(context.Background(), nil,
		suite.Options{Exec: d.Executor("j1", "t1", 0, plan)})
	if err != nil {
		t.Fatal(err)
	}
	assertCanonical(t, plan.Spec(), rep)
	if m := d.Metrics(); m.LeasesGranted != 0 || m.LocalCells != uint64(len(plan.Cells())) {
		t.Fatalf("metrics = %+v, want no leases and %d hub executions", m, len(plan.Cells()))
	}
}

func TestGracefulDeregisterRequeuesImmediately(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w1 := d.Register("leaving").WorkerID
	w2 := d.Register("staying").WorkerID
	enqueueCells(d, "j1", 0, "cell-1")
	mustAcquire(t, d, w1)

	if !d.Deregister(w1) {
		t.Fatal("Deregister(known) = false")
	}
	if d.Deregister(w1) {
		t.Fatal("Deregister(gone) = true")
	}
	// No TTL wait: the lease expired with the deregistration, and only
	// the backoff gate stands between the cell and the next worker.
	d.clockAdvanceForBackoff(t, 2*time.Second)
	g := mustAcquire(t, d, w2)
	if g.CellID != "cell-1" {
		t.Fatalf("grant after deregister = %+v", g)
	}
}

// clockAdvanceForBackoff advances the dispatcher's fake wall — a helper
// so tests that only need "backoff has passed" read as intent.
func (d *Dispatcher) clockAdvanceForBackoff(t *testing.T, dur time.Duration) {
	t.Helper()
	fw, ok := d.cfg.Clock.(*clock.FakeWall)
	if !ok {
		t.Fatal("dispatcher not on a FakeWall")
	}
	fw.Advance(dur)
}

func TestCompletionsForUnknownOrReleasedUnitsAreOrphans(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{})
	w1 := d.Register("w").WorkerID

	if st := complete(t, d, w1, CompleteRequest{LeaseID: "l999999", JobID: "jX", CellID: "cell-9", Key: "cell-9"}); st != CompleteOrphan {
		t.Fatalf("complete(unknown unit) = %s, want %s", st, CompleteOrphan)
	}

	// A unit dropped while pending (its lease expired, then its job was
	// cancelled) orphans the expired lease's late completion.
	u := enqueueCells(d, "j1", 0, "cell-1")[0]
	g := mustAcquire(t, d, w1)
	fw.Advance(11 * time.Second)
	keepAlive(t, d, w1)
	if _, err := d.leave(u, u.lead); err == nil {
		t.Fatal("leaving an unresolved unit returned no interruption")
	}
	if st := complete(t, d, w1, completion(g, report.Cell{ID: "cell-1"})); st != CompleteOrphan {
		t.Fatalf("complete(released unit) = %s, want %s", st, CompleteOrphan)
	}
	if m := d.Metrics(); m.OrphanCompletions != 2 || m.CellsPending != 0 {
		t.Fatalf("metrics = %+v, want 2 orphans and nothing pending", m)
	}
}

// TestCompletionLandsAfterLastWaiterLeft: a unit whose only job was
// cancelled while its lease was out stays in the table; the lease's
// completion is accepted and stored, and a later job is served it from
// the store instead of running it again.
func TestCompletionLandsAfterLastWaiterLeft(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newTestDispatcher(t, Config{Store: st})
	w1 := d.Register("w").WorkerID
	u := enqueueCells(d, "j1", 0, "cell-1")[0]
	g := mustAcquire(t, d, w1)
	if _, err := d.leave(u, u.lead); err == nil {
		t.Fatal("leaving an unresolved unit returned no interruption")
	}
	if m := d.Metrics(); m.LeasesByTenant["t1"] != 1 {
		t.Fatalf("metrics = %+v, want the lease still out", m)
	}

	res := report.Cell{ID: "cell-1", WallMS: 7}
	if ack := complete(t, d, w1, completion(g, res)); ack != CompleteAccepted {
		t.Fatalf("complete = %s, want %s", ack, CompleteAccepted)
	}
	if got, ok := st.Get("cell-1"); !ok || got.WallMS != 7 {
		t.Fatalf("store holds %+v (%v), want the completed cell", got, ok)
	}
	if _, tracked := d.units["cell-1"]; tracked {
		t.Fatal("a resolved unit no job waits on stayed in the table")
	}
	if _, rc, hit := d.join(waiter{j: testJob("j2", 0)}, "cell-1", "cell-1"); !hit || rc.WallMS != 7 {
		t.Fatalf("a later job's join: hit=%v rc=%+v, want the stored cell", hit, rc)
	}
	if m := d.Metrics(); m.RemoteCompletions != 1 || m.CellsPending != 0 || st.Stats().Puts != 1 {
		t.Fatalf("metrics = %+v, puts %d; want 1 completion, 1 put, nothing pending", m, st.Stats().Puts)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{RetryBaseDelay: time.Second, RetryMaxDelay: 4 * time.Second})
	d.mu.Lock()
	defer d.mu.Unlock()
	for attempts := 1; attempts <= 10; attempts++ {
		got := d.backoffLocked(attempts)
		if max := time.Duration(float64(4*time.Second) * 1.25); got > max {
			t.Fatalf("backoff(%d) = %v, exceeds jittered cap %v", attempts, got, max)
		}
		if min := time.Duration(float64(time.Second) * 0.75); got < min {
			t.Fatalf("backoff(%d) = %v, below jittered base %v", attempts, got, min)
		}
	}
}

func TestLeaseBatchGrantsPlanOrderAndPiggybacksCompletions(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w1 := d.Register("batcher").WorkerID
	units := enqueueCells(d, "j1", 0, "cell-1", "cell-2", "cell-3", "cell-4", "cell-5")

	// First trip: grants come back in plan order, digest-only.
	resp, err := d.LeaseBatch(w1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Grants) != 3 || len(resp.Acks) != 0 {
		t.Fatalf("batch = %d grants / %d acks, want 3 / 0", len(resp.Grants), len(resp.Acks))
	}
	for i, g := range resp.Grants {
		if want := units[i].cellID; g.CellID != want || g.Key != want || g.JobID != "j1" {
			t.Fatalf("grant[%d] = %+v, want plan order %s", i, g, want)
		}
		if g.SpecDigest != "dg" {
			t.Fatalf("grant[%d] digest = %q", i, g.SpecDigest)
		}
	}

	// Second trip piggybacks two completions (one of them twice: the
	// rerun is a deterministic duplicate) and refills from the plan.
	comps := []CompleteRequest{
		completion(resp.Grants[0], report.Cell{ID: "cell-1"}),
		completion(resp.Grants[1], report.Cell{ID: "cell-2"}),
		completion(resp.Grants[1], report.Cell{ID: "cell-2"}),
		{LeaseID: "l999999", JobID: "jX", CellID: "cell-9", Key: "cell-9"},
	}
	resp2, err := d.LeaseBatch(w1, 2, comps)
	if err != nil {
		t.Fatal(err)
	}
	wantAcks := []CompleteStatus{CompleteAccepted, CompleteAccepted, CompleteDuplicate, CompleteOrphan}
	if len(resp2.Acks) != len(wantAcks) {
		t.Fatalf("acks = %v, want %v", resp2.Acks, wantAcks)
	}
	for i, st := range resp2.Acks {
		if st != wantAcks[i] {
			t.Fatalf("ack[%d] = %s, want %s", i, st, wantAcks[i])
		}
	}
	if !resolved(units[0]) || !resolved(units[1]) {
		t.Fatal("piggybacked completions did not resolve their units")
	}
	if len(resp2.Grants) != 2 || resp2.Grants[0].CellID != "cell-4" || resp2.Grants[1].CellID != "cell-5" {
		t.Fatalf("refill grants = %+v, want cell-4, cell-5", resp2.Grants)
	}

	m := d.Metrics()
	if m.LeaseBatchCalls != 2 || m.LeaseBatchCells != 5 || m.PiggybackedCompletions != 4 {
		t.Fatalf("metrics = calls %d cells %d piggybacked %d, want 2 / 5 / 4",
			m.LeaseBatchCalls, m.LeaseBatchCells, m.PiggybackedCompletions)
	}
	ws := d.Workers()
	if len(ws) != 1 || ws[0].LastBatch != 2 {
		t.Fatalf("WorkerInfo.LastBatch = %+v, want 2 (most recent batch granted 2)", ws)
	}

	// A pure completion flush (max 0) grants nothing and does not
	// clobber the batch-depth gauge.
	resp3, err := d.LeaseBatch(w1, 0, []CompleteRequest{completion(resp.Grants[2], report.Cell{ID: "cell-3"})})
	if err != nil || len(resp3.Grants) != 0 || len(resp3.Acks) != 1 || resp3.Acks[0] != CompleteAccepted {
		t.Fatalf("flush = %+v (%v), want 1 accepted ack and no grants", resp3, err)
	}
	if ws := d.Workers(); ws[0].LastBatch != 2 {
		t.Fatalf("LastBatch after max=0 flush = %d, want still 2", ws[0].LastBatch)
	}

	// An idle poll (max > 0 but nothing pending) grants zero cells and
	// must not clobber it either: a worker between jobs still shows its
	// batch depth, not zero.
	if resp, err := d.LeaseBatch(w1, 16, nil); err != nil || len(resp.Grants) != 0 {
		t.Fatalf("idle poll = %+v (%v), want no grants", resp, err)
	}
	if ws := d.Workers(); ws[0].LastBatch != 2 {
		t.Fatalf("LastBatch after idle poll = %d, want still 2", ws[0].LastBatch)
	}
}

func TestLeaseBatchExpiryInsidePartiallyCompletedBatch(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{})
	w1 := d.Register("crasher").WorkerID
	w2 := d.Register("healthy").WorkerID
	us := enqueueCells(d, "j1", 0, "cell-1", "cell-2", "cell-3")
	u1, u2, u3 := us[0], us[1], us[2]

	resp, err := d.LeaseBatch(w1, 3, nil)
	if err != nil || len(resp.Grants) != 3 {
		t.Fatalf("batch = %+v (%v), want 3 grants", resp, err)
	}
	// One cell of the batch completes; then the worker goes silent and
	// every deadline passes. Only the two unfinished leases expire.
	if _, err := d.LeaseBatch(w1, 0, []CompleteRequest{completion(resp.Grants[0], report.Cell{ID: "cell-1"})}); err != nil {
		t.Fatal(err)
	}
	fw.Advance(11 * time.Second)
	d.Reap()
	m := d.Metrics()
	if m.LeasesExpired != 2 || m.LeaseRetries != 2 {
		t.Fatalf("after expiry: %d expired / %d retried, want 2 / 2 (the completed cell's lease must not expire)", m.LeasesExpired, m.LeaseRetries)
	}
	if !resolved(u1) || resolved(u2) || resolved(u3) {
		t.Fatalf("resolution = %v/%v/%v, want only cell-1 resolved", resolved(u1), resolved(u2), resolved(u3))
	}

	// The survivors requeue per-cell and another worker batch-leases
	// them after backoff (w1 was reaped with the silence).
	fw.Advance(2 * time.Second)
	resp2, err := d.LeaseBatch(w2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Grants) != 2 || resp2.Grants[0].CellID != "cell-2" || resp2.Grants[1].CellID != "cell-3" {
		t.Fatalf("retry batch = %+v, want cell-2, cell-3", resp2.Grants)
	}
}

func TestLeaseBatchStealsOneStragglerWhenNothingPending(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{})
	w1 := d.Register("slow").WorkerID
	w2 := d.Register("idle").WorkerID
	enqueueCells(d, "j1", 0, "cell-1")

	if resp, err := d.LeaseBatch(w1, 4, nil); err != nil || len(resp.Grants) != 1 {
		t.Fatalf("batch = %+v (%v), want the one pending cell", resp, err)
	}
	// Nothing pending and the straggler is too young: an empty batch.
	resp, err := d.LeaseBatch(w2, 4, nil)
	if err != nil || len(resp.Grants) != 0 {
		t.Fatalf("batch before StealAge = %+v (%v), want empty", resp, err)
	}
	// Past StealAge the idle worker's batch degrades to one stolen copy.
	fw.Advance(6 * time.Second)
	keepAlive(t, d, w1)
	resp, err = d.LeaseBatch(w2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Grants) != 1 || !resp.Grants[0].Stolen || resp.Grants[0].CellID != "cell-1" {
		t.Fatalf("batch past StealAge = %+v, want exactly one stolen copy of cell-1", resp.Grants)
	}
	if m := d.Metrics(); m.LeasesStolen != 1 {
		t.Fatalf("LeasesStolen = %d, want 1", m.LeasesStolen)
	}
}

func TestLeaseBatchUnknownWorkerSettlesCompletionsButErrors(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	w1 := d.Register("known").WorkerID
	u := enqueueCells(d, "j1", 0, "cell-1")[0]
	resp, err := d.LeaseBatch(w1, 1, nil)
	if err != nil || len(resp.Grants) != 1 {
		t.Fatalf("batch = %+v (%v)", resp, err)
	}

	// A forgotten worker's piggybacked completion still lands — finished
	// work is never discarded — but the call errors so the worker
	// re-registers. Its resend will be a harmless duplicate.
	_, err = d.LeaseBatch("w999999", 4, []CompleteRequest{completion(resp.Grants[0], report.Cell{ID: "cell-1"})})
	if err == nil {
		t.Fatal("LeaseBatch(unknown worker) succeeded, want error")
	}
	if !resolved(u) {
		t.Fatal("completion from unknown worker was discarded")
	}
	if m := d.Metrics(); m.RemoteCompletions != 1 || m.PiggybackedCompletions != 1 {
		t.Fatalf("metrics = %+v, want the completion settled", m)
	}
}

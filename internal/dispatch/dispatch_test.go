// Fake-clock unit tests for the hub-side dispatcher: lease expiry and
// retry, attempt budgets, work stealing, duplicate and orphan
// completions, dead-worker reaping and empty-fleet degradation — all
// stepped deterministically, no sleeps.
package dispatch

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/report"
)

// newTestDispatcher builds a dispatcher on a fake wall clock with
// short, round TTLs. The reaper goroutine is stopped immediately so
// every expiry pass in a test is an explicit, deterministic Reap call.
func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *clock.FakeWall) {
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
	d.Close()
	t.Cleanup(d.Close)
	return d, fw
}

// enqueueCells adds the cells of one job of tenant "t1" to the lease
// table, in plan order, as a job's waiters would.
func enqueueCells(d *Dispatcher, jobID string, priority int, cellIDs ...string) []*unit {
	j := d.newJob(jobID, "t1", priority, "dg")
	units := make([]*unit, len(cellIDs))
	for i, id := range cellIDs {
		units[i] = d.enqueue(j, id, i)
	}
	return units
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

	cell := report.Cell{ID: "cell-1"}
	if st := complete(t, d, w2, CompleteRequest{LeaseID: g2.LeaseID, JobID: "j1", CellID: "cell-1", Cell: cell}); st != CompleteAccepted {
		t.Fatalf("complete = %s, want %s", st, CompleteAccepted)
	}
	if !resolved(u) || u.localize || u.result.ID != "cell-1" {
		t.Fatalf("unit not resolved remotely: localize=%v result=%+v", u.localize, u.result)
	}
}

func TestAttemptBudgetExhaustionFallsBackToLocal(t *testing.T) {
	d, fw := newTestDispatcher(t, Config{MaxAttempts: 2})
	w1 := d.Register("flaky").WorkerID
	u := enqueueCells(d, "j1", 0, "cell-1")[0]

	for attempt := 1; attempt <= 2; attempt++ {
		g := mustAcquire(t, d, w1)
		if g.CellID != "cell-1" {
			t.Fatalf("attempt %d granted %q", attempt, g.CellID)
		}
		fw.Advance(11 * time.Second) // past LeaseTTL
		if !d.Heartbeat(w1) {        // the worker is alive, just never finishing
			t.Fatalf("worker expired on attempt %d", attempt)
		}
		d.Reap()
		if attempt == 1 {
			fw.Advance(2 * time.Second) // clear the retry backoff
		}
	}

	if !resolved(u) || !u.localize {
		t.Fatalf("budget exhausted but unit not localized (resolved=%v localize=%v)", resolved(u), u.localize)
	}
	m := d.Metrics()
	if m.LeasesExpired != 2 || m.LeaseRetries != 1 {
		t.Fatalf("metrics = %+v, want 2 expired / 1 retried", m)
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
	d.Heartbeat(w1)
	if _, ok := poll(t, d, w2); ok {
		t.Fatal("stole a lease younger than StealAge")
	}

	// Old enough: the idle worker gets a redundant copy.
	fw.Advance(3 * time.Second)
	d.Heartbeat(w1)
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
	if st := complete(t, d, w2, CompleteRequest{LeaseID: g2.LeaseID, JobID: "j1", CellID: "cell-1", Cell: first}); st != CompleteAccepted {
		t.Fatalf("first complete = %s", st)
	}
	if st := complete(t, d, w1, CompleteRequest{LeaseID: g1.LeaseID, JobID: "j1", CellID: "cell-1", Cell: second}); st != CompleteDuplicate {
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

	// Only the healthy worker heartbeats across the TTL window.
	fw.Advance(4 * time.Second)
	d.Heartbeat(w2)
	fw.Advance(4 * time.Second)
	d.Heartbeat(w2)

	if d.Heartbeat(w1) {
		t.Fatal("dead worker still heartbeats successfully, want unknown")
	}
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

func TestEmptyFleetLocalizesPendingCells(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	u := enqueueCells(d, "j1", 0, "cell-1")[0]
	d.Reap()
	if !resolved(u) || !u.localize {
		t.Fatalf("pending cell with zero workers not localized (resolved=%v localize=%v)", resolved(u), u.localize)
	}
	if m := d.Metrics(); m.LeasesGranted != 0 {
		t.Fatalf("granted %d leases with no workers", m.LeasesGranted)
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
	d, _ := newTestDispatcher(t, Config{})
	w1 := d.Register("w").WorkerID

	if st := complete(t, d, w1, CompleteRequest{LeaseID: "l999999", JobID: "jX", CellID: "cell-9"}); st != CompleteOrphan {
		t.Fatalf("complete(unknown unit) = %s, want %s", st, CompleteOrphan)
	}

	// A released unit (job cancelled, waiter gone) orphans late arrivals.
	u := enqueueCells(d, "j1", 0, "cell-1")[0]
	g := mustAcquire(t, d, w1)
	d.release(u)
	if st := complete(t, d, w1, CompleteRequest{LeaseID: g.LeaseID, JobID: "j1", CellID: "cell-1"}); st != CompleteOrphan {
		t.Fatalf("complete(released unit) = %s, want %s", st, CompleteOrphan)
	}
	if m := d.Metrics(); m.OrphanCompletions != 2 {
		t.Fatalf("OrphanCompletions = %d, want 2", m.OrphanCompletions)
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
		if want := units[i].cellID; g.CellID != want {
			t.Fatalf("grant[%d] = %s, want plan order %s", i, g.CellID, want)
		}
		if g.SpecDigest != "dg" {
			t.Fatalf("grant[%d] digest = %q", i, g.SpecDigest)
		}
	}

	// Second trip piggybacks two completions (one of them twice: the
	// rerun is a deterministic duplicate) and refills from the plan.
	comps := []CompleteRequest{
		{LeaseID: resp.Grants[0].LeaseID, JobID: "j1", CellID: "cell-1", Cell: report.Cell{ID: "cell-1"}},
		{LeaseID: resp.Grants[1].LeaseID, JobID: "j1", CellID: "cell-2", Cell: report.Cell{ID: "cell-2"}},
		{LeaseID: resp.Grants[1].LeaseID, JobID: "j1", CellID: "cell-2", Cell: report.Cell{ID: "cell-2"}},
		{LeaseID: "l999999", JobID: "jX", CellID: "cell-9"},
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
	resp3, err := d.LeaseBatch(w1, 0, []CompleteRequest{
		{LeaseID: resp.Grants[2].LeaseID, JobID: "j1", CellID: "cell-3", Cell: report.Cell{ID: "cell-3"}},
	})
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
	if _, err := d.LeaseBatch(w1, 0, []CompleteRequest{
		{LeaseID: resp.Grants[0].LeaseID, JobID: "j1", CellID: "cell-1", Cell: report.Cell{ID: "cell-1"}},
	}); err != nil {
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
	d.Heartbeat(w1)
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
	_, err = d.LeaseBatch("w999999", 4, []CompleteRequest{
		{LeaseID: resp.Grants[0].LeaseID, JobID: "j1", CellID: "cell-1", Cell: report.Cell{ID: "cell-1"}},
	})
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

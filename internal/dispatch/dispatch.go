// Package dispatch makes a ptestd hub a fault-tolerant sweep
// dispatcher: worker daemons register and heartbeat, a submitted
// spec's cell plan is sharded into per-cell leases with deadlines, and
// the hub survives every partial failure the fleet can throw at it —
// detect, reassign, degrade, never corrupt.
//
// The design leans on one invariant the rest of the repo already
// guarantees: cell execution is deterministic in (spec, cell identity)
// — per-cell seeds hash from the cell ID — so re-executing a cell is
// always safe. Fault tolerance therefore only ever costs wasted
// cycles:
//
//   - A lease that expires (worker crash, hang, partition) goes back to
//     pending with capped jittered backoff and is granted to another
//     worker; a per-cell attempt budget bounds the retries.
//   - Idle workers steal straggler cells: a second lease on a
//     long-running cell races the original, and whichever completion
//     arrives first wins — the loser is a bit-identical duplicate.
//   - A hub with zero live workers executes cells locally (Executor's
//     fast path), as does a cell whose attempt budget is exhausted.
//     The hub may run a job's plan wider than its cell_parallelism so
//     every store miss waits for a lease at once, but the Executor
//     admits at most cell_parallelism of the job's cells to in-process
//     execution at a time, so the fleet degrades to exactly the
//     single-daemon behavior even when it vanishes mid-job.
//
// Pending cells are granted by job priority (the job queue's rule),
// then in the order jobs first enqueued, then in plan order, so a wide
// low-priority sweep cannot hold the fleet ahead of a later urgent job.
// Completed cells flow back through suite.RunContext's ordered
// emitter, so the merged report is byte-identical to a local
// `ptest suite -canonical` run — pinned by the chaos e2e.
package dispatch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/report"
	"repro/internal/suite"
)

// Config tunes the dispatcher. Zero values default sensibly.
type Config struct {
	// Clock is the time source; nil means the system clock. Tests
	// inject clock.NewFakeWall and step lease expiry deterministically.
	Clock clock.Wall
	// LeaseTTL bounds one execution attempt of one cell (default 30s).
	LeaseTTL time.Duration
	// WorkerTTL is the liveness window: a worker silent for longer is
	// declared dead and its leases reassigned (default 15s).
	WorkerTTL time.Duration
	// MaxAttempts is the per-cell remote attempt budget; past it the
	// hub executes the cell locally instead of retrying forever
	// (default 3).
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff a cell waits before
	// re-granting after an expiry (default 250ms), capped at
	// RetryMaxDelay (default 5s) and jittered ±25%.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// StealAge is how old a cell's only lease must be before an idle
	// worker may start a redundant copy (default LeaseTTL/2).
	StealAge time.Duration
	// Seed fixes the backoff jitter stream (default 1).
	Seed int64
	// Events, when non-nil, receives the lease and worker-membership
	// lifecycle as structured events. Nil (the zero value) emits
	// nothing and changes nothing.
	Events *eventlog.Recorder
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 250 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 5 * time.Second
	}
	if c.StealAge <= 0 {
		c.StealAge = c.LeaseTTL / 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// job is what every unit of one job shares.
type job struct {
	id     string
	tenant string // submitting tenant name; labels lease metrics
	// priority and seq rank the job's cells for grants: higher priority
	// first, then the order jobs first enqueued a cell.
	priority int
	seq      uint64
	digest   string
}

// unit is one cell of one job moving through the lease lifecycle.
type unit struct {
	key    string // job.id + "/" + cellID
	job    *job
	cellID string
	pos    int // plan position: the grant order within the job
	state  unitState
	leases map[string]*lease // active leases (primary + stolen copies)
	// attempts counts primary grants; steals are free redundancy.
	attempts  int
	notBefore time.Time // backoff gate for the next grant
	result    report.Cell
	// localize tells the waiter to execute the cell itself; done is
	// closed exactly once, when the unit resolves either way.
	localize bool
	done     chan struct{}
}

// before is the grant order: higher job priority first, then jobs in
// the order they first enqueued, then plan order within a job.
func (u *unit) before(v *unit) bool {
	if u.job.priority != v.job.priority {
		return u.job.priority > v.job.priority
	}
	if u.job.seq != v.job.seq {
		return u.job.seq < v.job.seq
	}
	return u.pos < v.pos
}

type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitResolved // completed remotely or localized
)

// lease is one outstanding execution attempt.
type lease struct {
	id       string
	u        *unit
	workerID string
	granted  time.Time
	deadline time.Time
}

// workerState is the hub's view of one registered worker.
type workerState struct {
	id           string
	name         string
	registeredAt time.Time
	lastSeen     time.Time
	inFlight     map[string]*lease
	completed    uint64
	// lastBatch is the grant count of the worker's most recent
	// lease:batch call that granted anything.
	lastBatch int
}

// Dispatcher is the hub-side scheduler. Construct with New; Close stops
// the expiry reaper.
type Dispatcher struct {
	cfg  Config
	tick time.Duration

	mu      sync.Mutex
	rnd     *rand.Rand
	workers map[string]*workerState
	units   map[string]*unit
	order   []*unit // grant scan order, kept sorted by unit.before
	leases  map[string]*lease
	wseq    uint64
	lseq    uint64
	jseq    uint64
	met     Metrics

	// execLocal runs one cell in-process: suite.ExecuteCell, swapped
	// only by tests that watch the fallback's concurrency.
	execLocal func(*suite.Spec, suite.Cell) (report.Cell, error)

	stopOnce sync.Once
	stopc    chan struct{}
}

// New builds a dispatcher and starts its expiry reaper.
func New(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	tick := cfg.LeaseTTL
	if cfg.WorkerTTL < tick {
		tick = cfg.WorkerTTL
	}
	tick /= 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	d := &Dispatcher{
		cfg:       cfg,
		tick:      tick,
		rnd:       rand.New(rand.NewSource(cfg.Seed)),
		workers:   map[string]*workerState{},
		units:     map[string]*unit{},
		leases:    map[string]*lease{},
		execLocal: suite.ExecuteCell,
		stopc:     make(chan struct{}),
	}
	go d.reaperLoop()
	return d
}

// Close stops the reaper. In-flight waiters are not interrupted — the
// server drains jobs before closing the dispatcher.
func (d *Dispatcher) Close() {
	d.stopOnce.Do(func() { close(d.stopc) })
}

// reaperLoop drives expiry even when no worker ever calls again — the
// all-workers-dead case must still localize pending cells.
func (d *Dispatcher) reaperLoop() {
	for {
		select {
		case <-d.stopc:
			return
		case <-d.cfg.Clock.After(d.tick):
			d.Reap()
		}
	}
}

// Reap runs one expiry pass: dead workers out, expired leases requeued
// or localized, stranded cells localized when the fleet is empty. The
// reaper calls it on a timer; every worker-facing entry point calls it
// too, so state is fresh without waiting for a tick. Exported for
// deterministic fake-clock tests.
func (d *Dispatcher) Reap() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapLocked(d.cfg.Clock.Now())
}

func (d *Dispatcher) reapLocked(now time.Time) {
	// Dead workers first: every lease they held expires with them.
	for id, w := range d.workers {
		if now.Sub(w.lastSeen) <= d.cfg.WorkerTTL {
			continue
		}
		delete(d.workers, id)
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeWorkerReaped, Worker: id,
			Detail: fmt.Sprintf("%s silent %s", w.name, now.Sub(w.lastSeen).Round(time.Millisecond)),
		})
		for _, l := range w.inFlight {
			d.expireLeaseLocked(l, now)
		}
	}
	// Then deadline expiries.
	for _, l := range d.leases {
		if now.After(l.deadline) {
			d.expireLeaseLocked(l, now)
		}
	}
	// With no live workers nothing pending will ever be granted;
	// localize so waiters degrade to in-process execution instead of
	// parking until a worker happens to register.
	if len(d.workers) == 0 {
		for _, u := range d.order {
			if u.state == unitPending {
				d.localizeLocked(u, "no live workers")
			}
		}
	}
}

// expireLeaseLocked removes one lease and requeues or localizes its
// unit. Callers hold d.mu.
func (d *Dispatcher) expireLeaseLocked(l *lease, now time.Time) {
	if _, live := d.leases[l.id]; !live {
		return
	}
	delete(d.leases, l.id)
	if w := d.workers[l.workerID]; w != nil {
		delete(w.inFlight, l.id)
	}
	u := l.u
	delete(u.leases, l.id)
	d.met.LeasesExpired++
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseExpired, Job: u.job.id, Tenant: u.job.tenant,
		Cell: u.cellID, Lease: l.id, Worker: l.workerID,
	})
	if u.state != unitLeased || len(u.leases) > 0 {
		// Already resolved, or a stolen copy is still running — nothing
		// to requeue.
		return
	}
	if u.attempts >= d.cfg.MaxAttempts {
		d.localizeLocked(u, fmt.Sprintf("attempt budget exhausted (%d)", u.attempts))
		return
	}
	u.state = unitPending
	u.notBefore = now.Add(d.backoffLocked(u.attempts))
	d.met.LeaseRetries++
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseRetry, Job: u.job.id, Tenant: u.job.tenant,
		Cell: u.cellID, Detail: fmt.Sprintf("attempt %d/%d, backoff until %s", u.attempts, d.cfg.MaxAttempts, u.notBefore.UTC().Format(time.RFC3339Nano)),
	})
}

// backoffLocked is the capped, jittered exponential requeue delay after
// the attempts-th failed attempt. Callers hold d.mu (the jitter source
// is shared).
func (d *Dispatcher) backoffLocked(attempts int) time.Duration {
	delay := d.cfg.RetryBaseDelay
	for i := 1; i < attempts && delay < d.cfg.RetryMaxDelay; i++ {
		delay *= 2
	}
	if delay > d.cfg.RetryMaxDelay {
		delay = d.cfg.RetryMaxDelay
	}
	// ±25% jitter so a fleet's retries don't synchronize.
	jitter := 0.75 + 0.5*d.rnd.Float64()
	return time.Duration(float64(delay) * jitter)
}

// localizeLocked resolves a unit to local execution. Callers hold d.mu.
func (d *Dispatcher) localizeLocked(u *unit, reason string) {
	if u.state == unitResolved {
		return
	}
	u.state = unitResolved
	u.localize = true
	close(u.done)
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseLocalized, Job: u.job.id, Tenant: u.job.tenant,
		Cell: u.cellID, Detail: reason,
	})
}

// --- worker-facing API (the hub's HTTP handlers call these) ----------------

// Register adds a worker and returns its identity plus the timing
// contract. Re-registration after an expiry or hub restart is just a
// fresh Register — old lease IDs keep working for completions.
func (d *Dispatcher) Register(name string) Registration {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock.Now()
	d.reapLocked(now)
	d.wseq++
	id := fmt.Sprintf("w%06d", d.wseq)
	d.workers[id] = &workerState{
		id: id, name: name, registeredAt: now, lastSeen: now,
		inFlight: map[string]*lease{},
	}
	d.met.WorkersRegistered++
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeWorkerRegistered, Worker: id, Detail: name,
	})
	return Registration{
		WorkerID:    id,
		LeaseTTLMS:  d.cfg.LeaseTTL.Milliseconds(),
		WorkerTTLMS: d.cfg.WorkerTTL.Milliseconds(),
		HeartbeatMS: (d.cfg.WorkerTTL / 3).Milliseconds(),
	}
}

// Deregister removes a worker immediately (graceful shutdown); its
// leases requeue without waiting for the TTL.
func (d *Dispatcher) Deregister(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[id]
	if !ok {
		return false
	}
	delete(d.workers, id)
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeWorkerDeregistered, Worker: id, Detail: w.name,
	})
	now := d.cfg.Clock.Now()
	for _, l := range w.inFlight {
		d.expireLeaseLocked(l, now)
	}
	d.reapLocked(now)
	return true
}

// Heartbeat refreshes a worker's liveness. False means the hub does not
// know the worker (expired, or the hub restarted) — re-register.
func (d *Dispatcher) Heartbeat(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock.Now()
	d.reapLocked(now)
	w, ok := d.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = now
	d.cfg.Events.Emit(eventlog.Event{Type: eventlog.TypeWorkerHeartbeat, Worker: id})
	return true
}

// stealLocked duplicates the oldest single-lease straggler w isn't
// already running — work stealing for an otherwise-idle worker. Callers
// hold d.mu.
func (d *Dispatcher) stealLocked(w *workerState, now time.Time) (Grant, bool) {
	var victim *unit
	var oldest time.Time
	for _, u := range d.order {
		if u.state != unitLeased || len(u.leases) != 1 {
			continue
		}
		var l *lease
		for _, l = range u.leases {
		}
		if l.workerID == w.id || now.Sub(l.granted) < d.cfg.StealAge {
			continue
		}
		if victim == nil || l.granted.Before(oldest) {
			victim, oldest = u, l.granted
		}
	}
	if victim == nil {
		return Grant{}, false
	}
	d.met.LeasesStolen++
	return d.grantLocked(victim, w, now, true), true
}

// LeaseBatch is the worker-facing dispatch call: settle the request's
// piggybacked completions, then grant up to max pending cells in grant
// order (d.order is kept sorted by unit.before), each past its backoff
// gate. Grants carry the spec digest only; the worker's plan cache
// keys on it. When nothing is pending and max > 0 the batch degrades
// to at most one stolen straggler copy. max = 0 is a pure completion
// flush. Completions are settled before the worker check, so a
// finished cell always lands, even from a worker the hub no longer
// knows; an unknown-worker error after that tells the worker to
// re-register — the acks are lost with the error, and resending is
// harmless (duplicates). Any call from a known worker, like a
// heartbeat, proves it alive.
func (d *Dispatcher) LeaseBatch(workerID string, max int, comps []CompleteRequest) (LeaseBatchResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock.Now()
	d.reapLocked(now)

	var resp LeaseBatchResponse
	if len(comps) > 0 {
		resp.Acks = make([]CompleteStatus, len(comps))
		for i, c := range comps {
			resp.Acks[i] = d.completeLocked(workerID, c)
		}
		d.met.PiggybackedCompletions += uint64(len(comps))
	}
	w, ok := d.workers[workerID]
	if !ok {
		return LeaseBatchResponse{}, fmt.Errorf("dispatch: unknown worker %q", workerID)
	}
	w.lastSeen = now

	d.compactOrderLocked()
	for _, u := range d.order {
		if len(resp.Grants) >= max {
			break
		}
		if u.state == unitPending && !now.Before(u.notBefore) {
			resp.Grants = append(resp.Grants, d.grantLocked(u, w, now, false))
		}
	}
	if len(resp.Grants) == 0 && max > 0 {
		if g, ok := d.stealLocked(w, now); ok {
			resp.Grants = append(resp.Grants, g)
		}
	}
	// Record the depth only when cells were actually granted: an idle
	// worker's empty polls must not zero its batch depth in the roster
	// and the per-worker gauge.
	if len(resp.Grants) > 0 {
		w.lastBatch = len(resp.Grants)
	}
	if len(resp.Grants) > 0 || len(comps) > 0 {
		d.met.LeaseBatchCalls++
		d.met.LeaseBatchCells += uint64(len(resp.Grants))
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseBatch, Worker: workerID,
			Detail: fmt.Sprintf("granted %d, settled %d", len(resp.Grants), len(comps)),
		})
	}
	return resp, nil
}

// grantLocked creates one lease on u for w. Callers hold d.mu.
func (d *Dispatcher) grantLocked(u *unit, w *workerState, now time.Time, stolen bool) Grant {
	d.lseq++
	l := &lease{
		id:       fmt.Sprintf("l%06d", d.lseq),
		u:        u,
		workerID: w.id,
		granted:  now,
		deadline: now.Add(d.cfg.LeaseTTL),
	}
	d.leases[l.id] = l
	w.inFlight[l.id] = l
	u.leases[l.id] = l
	u.state = unitLeased
	if !stolen {
		u.attempts++
	}
	d.met.LeasesGranted++
	typ := eventlog.TypeLeaseGranted
	detail := fmt.Sprintf("attempt %d/%d", u.attempts, d.cfg.MaxAttempts)
	if stolen {
		typ = eventlog.TypeLeaseStolen
		detail = "redundant copy of straggler"
	}
	d.cfg.Events.Emit(eventlog.Event{
		Type: typ, Job: u.job.id, Tenant: u.job.tenant,
		Cell: u.cellID, Lease: l.id, Worker: w.id, Detail: detail,
	})
	return Grant{
		LeaseID: l.id, JobID: u.job.id, CellID: u.cellID, SpecDigest: u.job.digest,
		TTLMS: d.cfg.LeaseTTL.Milliseconds(), Stolen: stolen,
	}
}

// compactOrderLocked drops resolved units from the scan slice once they
// dominate it, so a long-lived hub's grant scan stays proportional to
// outstanding work. Callers hold d.mu.
func (d *Dispatcher) compactOrderLocked() {
	live := 0
	for _, u := range d.order {
		if u.state != unitResolved {
			live++
		}
	}
	if live*2 >= len(d.order) {
		return
	}
	kept := make([]*unit, 0, live)
	for _, u := range d.order {
		if u.state != unitResolved {
			kept = append(kept, u)
		}
	}
	d.order = kept
}

// completeLocked settles one piggybacked completion. Any completion of
// a still-outstanding cell is accepted — even from an expired lease or
// a worker the hub no longer knows — because every execution of a cell
// is bit-identical. Raced duplicates resolve deterministically: first
// writer wins, the rest are acknowledged and dropped. Callers hold
// d.mu.
func (d *Dispatcher) completeLocked(workerID string, req CompleteRequest) CompleteStatus {
	u, ok := d.units[req.JobID+"/"+req.CellID]
	if !ok {
		d.met.OrphanCompletions++
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseOrphan, Job: req.JobID, Cell: req.CellID,
			Lease: req.LeaseID, Worker: workerID,
		})
		return CompleteOrphan
	}
	// Release the reporting lease regardless of outcome.
	if l := d.leases[req.LeaseID]; l != nil && l.u == u {
		delete(d.leases, l.id)
		delete(u.leases, l.id)
		if w := d.workers[l.workerID]; w != nil {
			delete(w.inFlight, l.id)
		}
	}
	if u.state == unitResolved {
		d.met.DuplicateCompletions++
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseDupResolved, Job: u.job.id, Tenant: u.job.tenant,
			Cell: u.cellID, Lease: req.LeaseID, Worker: workerID,
			Detail: "first writer already won",
		})
		return CompleteDuplicate
	}
	u.result = req.Cell
	u.state = unitResolved
	close(u.done)
	d.met.RemoteCompletions++
	if w := d.workers[workerID]; w != nil {
		w.completed++
	}
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseCompleted, Job: u.job.id, Tenant: u.job.tenant,
		Cell: u.cellID, Lease: req.LeaseID, Worker: workerID,
	})
	return CompleteAccepted
}

// Workers snapshots fleet membership for the listing endpoint. Dead
// workers are reaped first, so Live is simply "still registered".
func (d *Dispatcher) Workers() []WorkerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock.Now()
	d.reapLocked(now)
	infos := make([]WorkerInfo, 0, len(d.workers))
	for _, w := range d.workers {
		infos = append(infos, WorkerInfo{
			ID: w.id, Name: w.name, Live: true,
			RegisteredAt:  w.registeredAt.UTC().Format(time.RFC3339),
			LastSeenAgoMS: now.Sub(w.lastSeen).Milliseconds(),
			InFlight:      len(w.inFlight),
			Completed:     w.completed,
			LastBatch:     w.lastBatch,
		})
	}
	// Stable order for rendering: by assigned ID (registration order).
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	return infos
}

// LiveWorkers counts currently-registered workers (after reaping).
func (d *Dispatcher) LiveWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapLocked(d.cfg.Clock.Now())
	return len(d.workers)
}

// Metrics snapshots the counters. CellsPending and LeasesByTenant are
// derived live from the lease table: how many cells wait for a grant,
// and whose cells currently hold fleet capacity.
func (d *Dispatcher) Metrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.met
	m.WorkersLive = len(d.workers)
	for _, u := range d.order {
		if u.state == unitPending {
			m.CellsPending++
		}
	}
	if len(d.leases) > 0 {
		m.LeasesByTenant = map[string]int{}
		for _, l := range d.leases {
			m.LeasesByTenant[l.u.job.tenant]++
		}
	}
	return m
}

// --- hub-side execution seam ------------------------------------------------

// Executor returns the suite.CellExec that fans one job's store misses
// out to the fleet. plan is the job's plan as submitted, and priority
// ranks its cells for grants the way the job queue ranks jobs. The
// caller may run the plan wider than its cell_parallelism, so that
// every miss waits for a lease at once. Degradation is built in at
// every decision point: no live workers or an exhausted attempt budget
// fall back to in-process execution — the exact code path a
// dispatcher-less daemon runs — and a per-job semaphore admits at most
// cell_parallelism of those at a time, so a job that loses its fleet
// mid-run computes exactly as a single daemon would.
func (d *Dispatcher) Executor(jobID, tenantName string, priority int, plan *suite.Plan) suite.CellExec {
	e := &jobExec{d: d, id: jobID, tenant: tenantName, priority: priority, plan: plan}
	return e.exec
}

// jobExec is one job's side of the executor. Its lease state and its
// local semaphore are built together at the job's first store miss, so
// a job served entirely from the store builds neither.
type jobExec struct {
	d        *Dispatcher
	id       string
	tenant   string
	priority int
	plan     *suite.Plan

	once  sync.Once
	j     *job
	local chan struct{} // admits cell_parallelism local executions
}

func (e *jobExec) prepare() {
	e.j = e.d.newJob(e.id, e.tenant, e.priority, e.plan.Digest())
	e.local = make(chan struct{}, engine.Normalize(e.plan.Spec().CellParallelism))
}

func (e *jobExec) exec(ctx context.Context, sp *suite.Spec, c suite.Cell) (report.Cell, error) {
	e.once.Do(e.prepare)
	if e.d.LiveWorkers() == 0 {
		return e.runLocal(ctx, sp, c)
	}
	pos, _ := e.plan.CellIndex(c.ID)
	u := e.d.enqueue(e.j, c.ID, pos)
	defer e.d.release(u)
	select {
	case <-u.done:
	case <-ctx.Done():
		return report.Cell{}, fmt.Errorf("dispatch: cell %s: %w", c.ID, suite.ErrInterrupted)
	}
	if u.localize {
		return e.runLocal(ctx, sp, c)
	}
	return u.result, nil
}

// runLocal executes a cell in-process once the job's semaphore admits
// it.
func (e *jobExec) runLocal(ctx context.Context, sp *suite.Spec, c suite.Cell) (report.Cell, error) {
	select {
	case e.local <- struct{}{}:
	case <-ctx.Done():
		return report.Cell{}, fmt.Errorf("dispatch: cell %s: %w", c.ID, suite.ErrInterrupted)
	}
	defer func() { <-e.local }()
	e.d.countLocal()
	return e.d.execLocal(sp, c)
}

func (d *Dispatcher) countLocal() {
	d.mu.Lock()
	d.met.LocalCells++
	d.mu.Unlock()
}

// newJob registers a job's shared lease state; its seq is the job's
// rank among equal priorities.
func (d *Dispatcher) newJob(id, tenantName string, priority int, digest string) *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.jseq++
	return &job{id: id, tenant: tenantName, priority: priority, seq: d.jseq, digest: digest}
}

// enqueue adds cell pos of j's plan to the lease table as pending work,
// at its place in grant order.
func (d *Dispatcher) enqueue(j *job, cellID string, pos int) *unit {
	d.mu.Lock()
	defer d.mu.Unlock()
	u := &unit{
		key: j.id + "/" + cellID,
		job: j, cellID: cellID, pos: pos,
		leases: map[string]*lease{},
		done:   make(chan struct{}),
	}
	d.units[u.key] = u
	i := sort.Search(len(d.order), func(i int) bool { return u.before(d.order[i]) })
	d.order = slices.Insert(d.order, i, u)
	return u
}

// release removes a unit (and any leases still on it) once its waiter
// has taken the result — or abandoned it on cancellation. Completions
// arriving afterwards resolve as orphans.
func (d *Dispatcher) release(u *unit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, l := range u.leases {
		delete(d.leases, id)
		if w := d.workers[l.workerID]; w != nil {
			delete(w.inFlight, id)
		}
		delete(u.leases, id)
	}
	if u.state != unitResolved {
		// Abandoned mid-flight (job cancelled): mark resolved so the
		// order scan skips it until compaction drops it.
		u.state = unitResolved
	}
	delete(d.units, u.key)
}

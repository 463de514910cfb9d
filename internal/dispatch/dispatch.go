// Package dispatch makes a ptestd hub a fault-tolerant sweep
// dispatcher: worker daemons register, a job's store misses become
// units of one table keyed by cell key, units are leased with
// deadlines, and the hub survives every partial failure the fleet can
// throw at it — detect, reassign, degrade, never corrupt.
//
// Cell execution is deterministic in (spec, cell identity) — per-cell
// seeds hash from the cell ID — so re-executing a cell is always safe,
// and executing it twice is pure waste:
//
//   - Jobs that miss one cell key wait on one unit, and a job that
//     misses it after the unit resolved is served from the store, which
//     the dispatcher fills before it wakes the unit's waiters.
//   - Every lessee takes units from the one table: remote workers over
//     lease:batch, which is also their only liveness signal, and
//     GOMAXPROCS hub slots, which take the units no remote worker can:
//     the fleet is empty, or the unit spent its attempt budget. The
//     slots, not a spec's cell_parallelism, bound the hub's own width.
//   - An expired lease (worker crash, hang, partition) goes back to
//     pending with capped jittered backoff for another worker.
//   - Idle workers steal straggler cells: a second lease races the
//     original, and the first completion wins — the loser is a
//     bit-identical duplicate.
//
// A pending unit is granted by its best waiter: job priority (the job
// queue's rule), then the order jobs first missed a cell, then plan
// order. Sharing a cell with a batch sweep therefore never holds an
// urgent job back. Completed cells flow back through the suite
// runner's ordered emitter, so the merged report is byte-identical to
// a local `ptest suite -canonical` run — pinned by the chaos e2e.
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
	"repro/internal/store"
	"repro/internal/suite"
)

// Config tunes the dispatcher. Zero values default sensibly.
type Config struct {
	// Clock is the time source; nil means the system clock. Tests
	// inject clock.NewFakeWall and step lease expiry deterministically.
	Clock clock.Wall
	// LeaseTTL bounds one execution attempt of one cell (default 30s).
	LeaseTTL time.Duration
	// WorkerTTL is the liveness window: a worker that makes no
	// lease:batch call for longer is declared dead and its leases
	// reassigned (default 15s).
	WorkerTTL time.Duration
	// MaxAttempts is the per-cell remote attempt budget; past it only a
	// hub slot may run the cell, instead of retrying forever (default
	// 3).
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
	// Store is the hub's cell store: results go in before their waiters
	// wake, and a miss is looked up again before it becomes a unit. Both
	// calls run under the dispatcher's lock, so a store must be a leaf
	// that never calls back into the dispatcher. Nil stores nothing.
	Store store.CellStore
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

// waiter is one job's claim on a unit: the job, and the plan position
// of the cell it waits for.
type waiter struct {
	j   *jobExec
	pos int
}

// before is the grant order: higher job priority first, then jobs in
// the order they first missed a cell, then plan order within a job.
func (w waiter) before(v waiter) bool {
	if w.j.priority != v.j.priority {
		return w.j.priority > v.j.priority
	}
	if w.j.seq != v.j.seq {
		return w.j.seq < v.j.seq
	}
	return w.pos < v.pos
}

// unit is one cell key moving through the lease lifecycle, shared by
// every job that waits on it.
type unit struct {
	key     string // the cell's CellKey
	cellID  string
	waiters []waiter
	// lead is the best waiter, whose rank the unit takes for grants. It
	// is a value, kept when the last waiter leaves: d.order compares a
	// unit until compaction drops it.
	lead   waiter
	state  unitState
	leases map[string]*lease // active leases (primary + stolen copies)
	// attempts counts primary grants; steals are free redundancy.
	attempts  int
	notBefore time.Time // backoff gate for the next grant
	result    report.Cell
	err       error
	done      chan struct{} // closed once, when the unit resolves
}

func (u *unit) before(v *unit) bool { return u.lead.before(v.lead) }

type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitRunning  // on a hub slot
	unitResolved // completed, failed on a slot, or dropped
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
// the expiry reaper and the hub slots.
type Dispatcher struct {
	cfg  Config
	tick time.Duration

	mu      sync.Mutex
	idle    *sync.Cond // hub slots wait on it for work; shares mu
	closed  bool
	rnd     *rand.Rand
	workers map[string]*workerState
	units   map[string]*unit // by cell key
	order   []*unit          // grant scan order, kept sorted by unit.before
	dead    int              // resolved units order still holds
	leases  map[string]*lease
	wseq    uint64
	lseq    uint64
	jseq    uint64
	met     Metrics

	// execLocal runs one cell on a hub slot: suite.ExecuteCell, swapped
	// only by tests that watch the slots.
	execLocal func(*suite.Spec, suite.Cell) (report.Cell, error)

	stopOnce sync.Once
	stopc    chan struct{}
	loops    sync.WaitGroup // the reaper and the hub slots
}

// New builds a dispatcher and starts its expiry reaper and one hub slot
// per GOMAXPROCS.
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
	d.idle = sync.NewCond(&d.mu)
	slots := engine.Normalize(-1)
	d.loops.Add(1 + slots)
	go d.reaperLoop()
	for i := 0; i < slots; i++ {
		go d.slotLoop()
	}
	return d
}

// Close stops the reaper and the hub slots and waits for them to exit;
// a slot finishes the cell it is running first. Waiters are not
// interrupted — the server drains jobs before closing the dispatcher.
// Later calls return at once.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.idle.Broadcast()
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stopc) })
	d.loops.Wait()
}

// reaperLoop drives expiry even when no worker ever calls again — the
// all-workers-dead case must still hand pending cells to the slots.
func (d *Dispatcher) reaperLoop() {
	defer d.loops.Done()
	for {
		select {
		case <-d.stopc:
			return
		case <-d.cfg.Clock.After(d.tick):
			d.Reap()
		}
	}
}

// slotLoop is one hub slot: the hub's CPU as a lessee of the unit
// table. It runs the best-ranked pending unit that no remote worker
// can take, puts the result and wakes the unit's waiters.
func (d *Dispatcher) slotLoop() {
	defer d.loops.Done()
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.closed {
		u := d.slotUnitLocked()
		if u == nil {
			d.idle.Wait()
			continue
		}
		reason := "no live workers"
		if u.attempts >= d.cfg.MaxAttempts {
			reason = fmt.Sprintf("attempt budget exhausted (%d)", u.attempts)
		}
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseLocalized, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
			Cell: u.cellID, Detail: reason,
		})
		u.state = unitRunning
		plan, pos, exec := u.lead.j.plan, u.lead.pos, d.execLocal
		d.mu.Unlock()
		rc, err := exec(plan.Spec(), plan.Cells()[pos])
		d.mu.Lock()
		d.met.LocalCells++
		if u.state == unitRunning {
			d.resolveLocked(u, rc, err)
		}
	}
}

// slotUnitLocked is the best-ranked pending unit a hub slot may take:
// any, with no live worker, or else one whose attempt budget is spent.
// Callers hold d.mu.
func (d *Dispatcher) slotUnitLocked() *unit {
	for _, u := range d.order {
		if u.state == unitPending && (len(d.workers) == 0 || u.attempts >= d.cfg.MaxAttempts) {
			return u
		}
	}
	return nil
}

// Reap runs one expiry pass: dead workers out, expired leases requeued.
// The reaper calls it on a timer; every worker-facing entry point calls
// it too, so state is fresh without waiting for a tick. Exported for
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
		d.dropWorkerLocked(w, now)
	}
	// Then deadline expiries.
	for _, l := range d.leases {
		if now.After(l.deadline) {
			d.expireLeaseLocked(l, now)
		}
	}
}

// dropWorkerLocked expires the leases of a worker that left the roster;
// when it was the last one, every pending unit is the slots' to take.
// Callers hold d.mu.
func (d *Dispatcher) dropWorkerLocked(w *workerState, now time.Time) {
	for _, l := range w.inFlight {
		d.expireLeaseLocked(l, now)
	}
	if len(d.workers) == 0 {
		d.idle.Broadcast()
	}
}

// expireLeaseLocked removes one lease and requeues its unit, or drops
// the unit when no job waits on it any more. Callers hold d.mu.
func (d *Dispatcher) expireLeaseLocked(l *lease, now time.Time) {
	if _, live := d.leases[l.id]; !live {
		return
	}
	d.removeLeaseLocked(l)
	u := l.u
	d.met.LeasesExpired++
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseExpired, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
		Cell: u.cellID, Lease: l.id, Worker: l.workerID,
	})
	if u.state != unitLeased || len(u.leases) > 0 {
		// A stolen copy is still running — nothing to requeue.
		return
	}
	if len(u.waiters) == 0 {
		d.finishLocked(u)
		return
	}
	u.state = unitPending
	if u.attempts >= d.cfg.MaxAttempts {
		d.idle.Signal() // only a hub slot may take it now
		return
	}
	u.notBefore = now.Add(d.backoffLocked(u.attempts))
	d.met.LeaseRetries++
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseRetry, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
		Cell: u.cellID, Detail: fmt.Sprintf("attempt %d/%d, backoff until %s", u.attempts, d.cfg.MaxAttempts, u.notBefore.UTC().Format(time.RFC3339Nano)),
	})
}

// removeLeaseLocked forgets one lease everywhere it is held. Callers
// hold d.mu.
func (d *Dispatcher) removeLeaseLocked(l *lease) {
	delete(d.leases, l.id)
	delete(l.u.leases, l.id)
	if w := d.workers[l.workerID]; w != nil {
		delete(w.inFlight, l.id)
	}
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

// resolveLocked settles u with an execution's outcome: a result is put
// into the store first, so a job that misses the key from now on is
// served from the store, and then the waiters wake. Callers hold d.mu.
func (d *Dispatcher) resolveLocked(u *unit, rc report.Cell, err error) {
	if err == nil && d.cfg.Store != nil {
		// A failed put degrades like the suite runner's own: the result
		// is still correct, only not memoized.
		_ = d.cfg.Store.Put(u.key, rc)
	}
	u.result, u.err = rc, err
	for _, l := range u.leases {
		d.removeLeaseLocked(l)
	}
	d.finishLocked(u)
}

// finishLocked marks u resolved and wakes its waiters. A unit no job
// waits on leaves the table now; otherwise the last waiter to take the
// outcome removes it. Callers hold d.mu.
func (d *Dispatcher) finishLocked(u *unit) {
	u.state = unitResolved
	close(u.done)
	if len(u.waiters) == 0 {
		delete(d.units, u.key)
	}
	// Resolved units stay in d.order until they dominate it, so a
	// long-lived hub's scans stay proportional to outstanding work.
	if d.dead++; d.dead*2 > len(d.order) {
		d.order = slices.DeleteFunc(d.order, func(u *unit) bool { return u.state == unitResolved })
		d.dead = 0
	}
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
	d.dropWorkerLocked(w, d.cfg.Clock.Now())
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
// gate and within its attempt budget. Grants carry the spec digest
// only; the worker's plan cache keys on it. When nothing is pending and
// max > 0 the batch degrades to at most one stolen straggler copy. max
// = 0 is a pure completion flush. Completions are settled before the
// worker check, so a finished cell always lands, even from a worker the
// hub no longer knows; an unknown-worker error after that tells the
// worker to re-register — the acks are lost with the error, and
// resending is harmless (duplicates). Any call from a known worker
// proves it alive: it is the worker's only liveness signal.
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

	for _, u := range d.order {
		if len(resp.Grants) >= max {
			break
		}
		if u.state == unitPending && u.attempts < d.cfg.MaxAttempts && !now.Before(u.notBefore) {
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

// grantLocked creates one lease on u for w. The grant names u's lead
// job, whose spec the worker fetches on a plan-cache miss. Callers hold
// d.mu.
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
		Type: typ, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
		Cell: u.cellID, Lease: l.id, Worker: w.id, Detail: detail,
	})
	return Grant{
		LeaseID: l.id, JobID: u.lead.j.id, CellID: u.cellID, Key: u.key,
		SpecDigest: u.lead.j.digest, TTLMS: d.cfg.LeaseTTL.Milliseconds(), Stolen: stolen,
	}
}

// completeLocked settles one piggybacked completion. Any completion of
// a still-outstanding cell is accepted — even from an expired lease or
// a worker the hub no longer knows — because every execution of a cell
// is bit-identical. Raced duplicates resolve deterministically: first
// writer wins, the rest are acknowledged and dropped. Callers hold
// d.mu.
func (d *Dispatcher) completeLocked(workerID string, req CompleteRequest) CompleteStatus {
	u, ok := d.units[req.Key]
	if !ok {
		d.met.OrphanCompletions++
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseOrphan, Job: req.JobID, Cell: req.CellID,
			Lease: req.LeaseID, Worker: workerID,
		})
		return CompleteOrphan
	}
	if u.state == unitResolved {
		d.met.DuplicateCompletions++
		d.cfg.Events.Emit(eventlog.Event{
			Type: eventlog.TypeLeaseDupResolved, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
			Cell: u.cellID, Lease: req.LeaseID, Worker: workerID,
			Detail: "first writer already won",
		})
		return CompleteDuplicate
	}
	d.met.RemoteCompletions++
	if w := d.workers[workerID]; w != nil {
		w.completed++
	}
	d.cfg.Events.Emit(eventlog.Event{
		Type: eventlog.TypeLeaseCompleted, Job: u.lead.j.id, Tenant: u.lead.j.tenant,
		Cell: u.cellID, Lease: req.LeaseID, Worker: workerID,
	})
	d.resolveLocked(u, req.Cell, nil)
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
			m.LeasesByTenant[l.u.lead.j.tenant]++
		}
	}
	return m
}

// --- hub-side execution seam ------------------------------------------------

// Executor returns the suite.CellExec that hands one job's store misses
// to the unit table, where a lease or a hub slot executes each key
// once for every job waiting on it. plan is the job's plan as
// submitted, and priority ranks its cells for grants the way the job
// queue ranks jobs. The caller runs the plan at full width, so that
// every miss waits in the table at once; the hub slots, not the plan,
// bound how many cells the hub executes itself.
func (d *Dispatcher) Executor(jobID, tenantName string, priority int, plan *suite.Plan) suite.CellExec {
	e := &jobExec{d: d, id: jobID, tenant: tenantName, priority: priority, plan: plan, digest: plan.Digest()}
	return e.exec
}

// jobExec is one job's side of the executor.
type jobExec struct {
	d        *Dispatcher
	id       string
	tenant   string
	priority int
	plan     *suite.Plan
	digest   string
	// seq ranks the job among equal priorities: the order jobs first
	// missed a cell. Zero until then; under d.mu.
	seq uint64
}

func (e *jobExec) exec(ctx context.Context, _ *suite.Spec, c suite.Cell) (report.Cell, error) {
	pos, _ := e.plan.CellIndex(c.ID)
	w := waiter{j: e, pos: pos}
	u, rc, hit := e.d.join(w, e.plan.Keys()[pos], c.ID)
	if hit {
		return rc, nil
	}
	select {
	case <-u.done:
	case <-ctx.Done():
	}
	return e.d.leave(u, w)
}

// join adds w to the unit of key, creating the unit when no job waits
// on the key. A key the store holds, because its unit resolved after
// w's job looked it up, is served instead: hit is true and rc is the
// stored cell.
func (d *Dispatcher) join(w waiter, key, cellID string) (u *unit, rc report.Cell, hit bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w.j.seq == 0 {
		d.jseq++
		w.j.seq = d.jseq
	}
	if u = d.units[key]; u != nil {
		u.waiters = append(u.waiters, w)
		if u.state != unitResolved && (len(u.waiters) == 1 || w.before(u.lead)) {
			d.rerankLocked(u, w)
		}
		return u, report.Cell{}, false
	}
	if d.cfg.Store != nil {
		if rc, ok := d.cfg.Store.Get(key); ok {
			return nil, rc, true
		}
	}
	u = &unit{
		key: key, cellID: cellID, waiters: []waiter{w}, lead: w,
		leases: map[string]*lease{},
		done:   make(chan struct{}),
	}
	d.units[key] = u
	d.insertLocked(u)
	if len(d.workers) == 0 {
		d.idle.Signal()
	}
	return u, report.Cell{}, false
}

// leave takes w's claim off u and returns u's outcome: the resolved
// result, or ErrInterrupted when w's job was cancelled first. A pending
// unit no job waits on any more is dropped; a leased or running one
// still puts its result. Leaving the lead reranks the unit by the best
// waiter left.
func (d *Dispatcher) leave(u *unit, w waiter) (report.Cell, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	u.waiters = slices.DeleteFunc(u.waiters, func(v waiter) bool { return v == w })
	switch {
	case u.state == unitResolved:
		if len(u.waiters) == 0 && d.units[u.key] == u {
			delete(d.units, u.key)
		}
		return u.result, u.err
	case len(u.waiters) == 0:
		if u.state == unitPending {
			d.finishLocked(u)
		}
	case u.lead == w:
		best := u.waiters[0]
		for _, v := range u.waiters[1:] {
			if v.before(best) {
				best = v
			}
		}
		d.rerankLocked(u, best)
	}
	return report.Cell{}, fmt.Errorf("dispatch: cell %s: %w", u.cellID, suite.ErrInterrupted)
}

// insertLocked adds u at its place in grant order. Callers hold d.mu.
func (d *Dispatcher) insertLocked(u *unit) {
	i := sort.Search(len(d.order), func(i int) bool { return u.before(d.order[i]) })
	d.order = slices.Insert(d.order, i, u)
}

// rerankLocked gives unresolved u a new lead and moves it to the lead's
// place in grant order. Callers hold d.mu.
func (d *Dispatcher) rerankLocked(u *unit, lead waiter) {
	i := sort.Search(len(d.order), func(i int) bool { return !d.order[i].before(u) })
	for d.order[i] != u {
		i++
	}
	d.order = slices.Delete(d.order, i, i+1)
	u.lead = lead
	d.insertLocked(u)
}

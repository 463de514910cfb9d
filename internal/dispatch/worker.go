// Worker is the fleet side of the dispatch protocol: register with the
// hub, lease cells, execute them through the deterministic suite
// runner, and report completions. Failures are classified once,
// by internal/api's transient rule, and only what can heal is retried:
// a lost hub (no answer, 429, 5xx) means the worker finishes in-flight
// cells, retries their completions with backoff, and re-registers when
// the hub answers again; an expired registration (hub restart, 404) is
// just a fresh Register; a completion the hub no longer wants is
// acknowledged as an orphan and forgotten. A refusal that cannot heal
// does not loop: a 401 anywhere, or any permanent refusal of Register,
// ends Run with that error, and a lease:batch refused for good drops
// its completions, which lease expiry re-grants.
//
// The wire is a single pump loop over POST lease:batch: each round
// trip delivers the finished completions and refills the in-flight
// pipeline with up to LeaseBatch digest-only grants, and any call keeps
// the worker live at the hub, so a pump that has made no call for the
// hub's heartbeat_ms makes one. Resolved plans
// are cached by spec digest, within the same budget of estimated bytes
// as a hub's plan cache, and filled via one GET /api/v1/jobs/{id}/spec
// per job. Hub and workers ship from one commit, so there is no other
// wire to fall back to.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/dispatch/faultinject"
	"repro/internal/lru"
	"repro/internal/suite"
)

// workersPathPrefix is the dispatch API the hub mounts.
const workersPathPrefix = "/api/v1/workers"

// WorkerConfig points a worker at its hub.
type WorkerConfig struct {
	// HubURL is the hub ptestd, e.g. "http://hub:8321".
	HubURL string
	// Name labels the worker in `ptest client workers` (default: the
	// hostname).
	Name string
	// Parallelism is how many leased cells execute concurrently
	// (default 1; each cell additionally parallelizes its trials per
	// the spec).
	Parallelism int
	// PollInterval is the idle re-poll cadence (default 500ms).
	PollInterval time.Duration
	// HTTPClient overrides the default 30s-timeout client.
	HTTPClient *http.Client
	// APIKey authenticates against a hub running with -auth-keys; sent
	// as `Authorization: Bearer <key>`. Empty means anonymous.
	APIKey string
	// LeaseBatch is the most cells one lease:batch round trip may
	// grant, which is also the in-flight pipeline depth. ≤ 0 (the
	// default) sizes it from execution capacity (2×Parallelism, so the
	// pipeline stays full while a refill is in flight).
	LeaseBatch int
	// CompleteLinger bounds how long a finished cell may wait for
	// batch-mates before its completion is flushed (default 100ms;
	// < 0 flushes every completion at the next pump turn).
	CompleteLinger time.Duration
	// Clock abstracts sleeps and backoff for tests (default: system).
	Clock clock.Wall
	// Hooks inject faults for chaos tests; nil in production.
	Hooks *faultinject.Hooks
	// Logf, when non-nil, receives one line per notable event
	// (registration, hub loss, re-registration, kill).
	Logf func(format string, args ...any)
}

// Worker runs the lease-polling loop against one hub.
type Worker struct {
	cfg  WorkerConfig
	conn api.Conn

	mu    sync.Mutex
	reg   Registration
	plans *lru.Cache[*suite.Plan] // spec digest → resolved plan
	fetch map[string]*specFetch   // digest → in-flight spec fetch (single-flight)

	killed atomic.Bool
	killc  chan struct{}

	// Completed counts cells this worker executed and successfully
	// reported — the chaos e2e sums it across the fleet.
	completedCount atomic.Uint64
}

// specFetch is one in-flight GET /api/v1/jobs/{id}/spec: concurrent
// slots missing the same digest wait on done instead of each paying
// the fetch.
type specFetch struct {
	done chan struct{}
	p    *suite.Plan
	err  error
}

// NewWorker validates the config and builds a worker. It does not
// contact the hub — Run registers, and keeps retrying until the hub
// answers, so workers and hub can start in any order.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	base, err := api.BaseURL(cfg.HubURL)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	if cfg.Name == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Name = host
		} else {
			cfg.Name = "worker"
		}
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.LeaseBatch <= 0 {
		cfg.LeaseBatch = 2 * cfg.Parallelism
	}
	if cfg.CompleteLinger == 0 {
		cfg.CompleteLinger = 100 * time.Millisecond
	}
	return &Worker{
		cfg:   cfg,
		conn:  api.Conn{Base: base, HC: cfg.HTTPClient, Key: cfg.APIKey},
		plans: lru.New[*suite.Plan](suite.PlanCacheBudget),
		fetch: map[string]*specFetch{},
		killc: make(chan struct{}),
	}, nil
}

// Completed returns how many cells this worker executed and reported.
func (w *Worker) Completed() uint64 { return w.completedCount.Load() }

// Run registers and serves leases until ctx is cancelled (graceful:
// in-flight cells finish and the worker deregisters), the hub refuses
// it for good (the same graceful exit, returning the refusal: a bad
// key matches api.ErrUnauthorized), or a fault hook kills it (abrupt:
// everything is abandoned and Run returns faultinject.ErrKilled).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	// The pump ends the run with stop(refusal); Run returns the cause.
	loopCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)

	// One pump goroutine owns the wire and feeds the execution slots.
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		w.pump(loopCtx, stop)
	}()

	select {
	case <-w.killc:
		// Simulated process death: no completion, no deregistration, no
		// waiting. The hub finds out through lease expiry.
		stop(nil)
		return faultinject.ErrKilled
	case <-loopCtx.Done():
	}
	// Graceful: the slots finish the cells they hold and the pump
	// flushes their completions first.
	<-pumped
	w.deregister()
	return context.Cause(loopCtx)
}

// register obtains a fresh identity, retrying transient failures with
// backoff until the hub answers or ctx ends. Any other refusal is
// returned: a worker the hub will not take does not wait for it.
func (w *Worker) register(ctx context.Context) error {
	delay := 100 * time.Millisecond
	for {
		var reg Registration
		err := w.conn.JSON(ctx, http.MethodPost, workersPathPrefix, RegisterRequest{Name: w.cfg.Name}, &reg)
		if err == nil {
			w.mu.Lock()
			w.reg = reg
			w.mu.Unlock()
			w.cfg.Logf("dispatch worker %s: registered as %s", w.cfg.Name, reg.WorkerID)
			return nil
		}
		if ctx.Err() == nil && !api.Transient(err) {
			return fmt.Errorf("dispatch: registering with %s: %w", w.conn.Base, err)
		}
		w.cfg.Logf("dispatch worker %s: registration failed (%v), retrying", w.cfg.Name, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.cfg.Clock.After(delay):
		}
		if delay < 5*time.Second {
			delay *= 2
		}
	}
}

// registration snapshots the current identity.
func (w *Worker) registration() Registration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reg
}

// deregister tells the hub this worker is gone — best effort; expiry
// covers the failure case.
func (w *Worker) deregister() {
	reg := w.registration()
	if reg.WorkerID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.conn.JSON(ctx, http.MethodDelete, workersPathPrefix+"/"+url.PathEscape(reg.WorkerID), nil, nil)
}

// executeGrant runs one leased cell through the fault-hook seams and
// returns its completion — nil when there is nothing to report (kill,
// sever, unusable spec, failed execution; lease expiry recovers all of
// them).
func (w *Worker) executeGrant(ctx context.Context, g Grant) *CompleteRequest {
	if w.cfg.Hooks.Kill(g.CellID) {
		w.kill()
		return nil
	}
	plan, err := w.planFor(ctx, g)
	if err != nil {
		// An unusable spec cannot be executed here; say so and let the
		// lease expire into a retry or a hub slot.
		w.cfg.Logf("dispatch worker %s: lease %s spec unusable: %v", w.cfg.Name, g.LeaseID, err)
		return nil
	}
	i, ok := plan.CellIndex(g.CellID)
	if !ok {
		w.cfg.Logf("dispatch worker %s: lease %s names unknown cell %s", w.cfg.Name, g.LeaseID, g.CellID)
		return nil
	}
	res, err := suite.ExecuteCell(plan.Spec(), plan.Cells()[i])
	if err != nil {
		w.cfg.Logf("dispatch worker %s: cell %s failed: %v", w.cfg.Name, g.CellID, err)
		return nil
	}
	if w.cfg.Hooks.Sever(g.CellID) {
		return nil // the network ate the result; expiry recovers it
	}
	if w.killed.Load() {
		return nil // dead workers post nothing
	}
	return &CompleteRequest{LeaseID: g.LeaseID, JobID: g.JobID, CellID: g.CellID, Key: g.Key, Cell: res}
}

// planFor returns the grant's resolved plan: LRU hit by digest, else
// fetched once per job over GET /api/v1/jobs/{id}/spec, with concurrent
// misses of one digest collapsed into a single fetch.
func (w *Worker) planFor(ctx context.Context, g Grant) (*suite.Plan, error) {
	w.mu.Lock()
	if p, ok := w.plans.Get(g.SpecDigest); ok {
		w.mu.Unlock()
		return p, nil
	}
	if f, ok := w.fetch[g.SpecDigest]; ok {
		w.mu.Unlock()
		select {
		case <-f.done:
			return f.p, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &specFetch{done: make(chan struct{})}
	w.fetch[g.SpecDigest] = f
	w.mu.Unlock()

	var raw json.RawMessage
	err := w.conn.JSON(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(g.JobID)+"/spec", nil, &raw)
	var p *suite.Plan
	if err == nil {
		p, err = suite.ParsePlan(bytes.NewReader(raw))
	}
	if err == nil && p.Digest() != g.SpecDigest {
		// The job's spec does not hash to the grant's digest — never
		// poison the content-addressed cache with it.
		p, err = nil, fmt.Errorf("dispatch: job %s spec digest %s != grant digest %s",
			g.JobID, p.Digest(), g.SpecDigest)
	}
	f.p, f.err = p, err
	w.mu.Lock()
	delete(w.fetch, g.SpecDigest)
	if err == nil {
		w.plans.Add(g.SpecDigest, p, p.Weight(len(raw)))
	}
	w.mu.Unlock()
	close(f.done)
	return p, err
}

// slotResult is one execution slot's answer for one grant: the
// completion to piggyback, or nil when there is nothing to report.
type slotResult struct {
	comp *CompleteRequest
}

// slotLoop is one execution slot: take a grant off the pipeline,
// execute it, hand the result back to the pump. Slots never touch the
// wire for dispatch traffic — the pump owns it.
func (w *Worker) slotLoop(ctx context.Context, grants <-chan Grant, results chan<- slotResult) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.killc:
			return
		case g := <-grants:
			// results is sized to the pipeline depth, so this send never
			// blocks: at most depth grants are ever unresulted.
			results <- slotResult{comp: w.executeGrant(ctx, g)}
		}
	}
}

// leaseBatch is one round trip: pending completions out, up to max
// digest-only grants back.
func (w *Worker) leaseBatch(ctx context.Context, max int, comps []CompleteRequest) (LeaseBatchResponse, error) {
	reg := w.registration()
	var resp LeaseBatchResponse
	err := w.conn.JSON(ctx, http.MethodPost,
		workersPathPrefix+"/"+url.PathEscape(reg.WorkerID)+"/lease:batch",
		LeaseBatchRequest{Max: max, Completions: comps}, &resp)
	return resp, err
}

// pump owns the wire: the only goroutine that calls lease:batch. It
// keeps up to LeaseBatch grants in flight across the execution slots,
// collects their completions, and spends round trips by four rules —
// starving (nothing in flight, nothing pending) polls for a full
// batch; a half-empty pipeline or an expired linger flushes pending
// completions and refills in the same call; a pump that has made no
// call for the hub's heartbeat_ms calls to stay live, a pure flush when
// its pipeline is full; otherwise it waits. Steady state is therefore
// ~2 round trips per LeaseBatch cells, with CompleteLinger bounding how
// stale a finished result may go unreported. A 401, or a
// re-registration the hub refuses, ends the run through stop.
func (w *Worker) pump(ctx context.Context, stop context.CancelCauseFunc) {
	depth := w.cfg.LeaseBatch
	slotCtx, stopSlots := context.WithCancel(ctx)
	defer stopSlots()
	grants := make(chan Grant, depth)
	results := make(chan slotResult, depth)
	var slots sync.WaitGroup
	for i := 0; i < w.cfg.Parallelism; i++ {
		slots.Add(1)
		go func() {
			defer slots.Done()
			w.slotLoop(slotCtx, grants, results)
		}()
	}
	defer slots.Wait()

	outstanding := 0 // grants handed to the pipeline, result not yet back
	var pending []CompleteRequest
	var lingerC <-chan time.Time
	lingerFired := false
	backoff := w.cfg.PollInterval
	rnd := rand.New(rand.NewSource(time.Now().UnixNano()))
	liveC, liveDue := w.cfg.Clock.After(w.liveEvery(rnd)), false

	for ctx.Err() == nil && !w.killed.Load() {
		free := depth - outstanding
		doCall, max := false, 0
		switch {
		case outstanding == 0 && len(pending) == 0:
			doCall, max = true, depth // starving: ask for a full batch
		case len(pending) > 0 && (lingerFired || outstanding == 0 || len(pending) >= (depth+1)/2):
			doCall, max = true, free // flush, refilling in the same trip
		case liveDue:
			doCall, max = true, free // the hub has not heard from us lately
		}
		if !doCall {
			select {
			case <-ctx.Done():
			case <-w.killc:
			case r := <-results:
				outstanding--
				if r.comp != nil {
					if len(pending) == 0 && w.cfg.CompleteLinger > 0 {
						lingerC = w.cfg.Clock.After(w.cfg.CompleteLinger)
					}
					if w.cfg.CompleteLinger < 0 {
						lingerFired = true
					}
					pending = append(pending, *r.comp)
				}
			case <-lingerC:
				lingerC, lingerFired = nil, true
			case <-liveC:
				liveDue = true
			}
			continue
		}

		resp, err := w.leaseBatch(ctx, max, pending)
		liveC, liveDue = w.cfg.Clock.After(w.liveEvery(rnd)), false
		if err != nil {
			switch {
			case ctx.Err() != nil:
				continue // shutdown, not a hub failure
			case isUnknownWorker(err):
				// Completions may have been settled before the hub rejected
				// us; keep them pending — resending is harmless (duplicates).
				if err := w.register(ctx); err != nil {
					stop(err)
				}
				continue
			case errors.Is(err, api.ErrUnauthorized):
				stop(err)
				continue
			case api.Transient(err):
				w.cfg.Logf("dispatch worker %s: hub unreachable (%v), backing off", w.cfg.Name, err)
			default:
				// Resending what the hub refused for good would wedge the
				// pump; lease expiry re-grants the cells instead.
				w.cfg.Logf("dispatch worker %s: hub refused lease:batch (%v), dropping %d completions", w.cfg.Name, err, len(pending))
				pending = pending[:0]
				lingerC, lingerFired = nil, false
			}
			select {
			case <-ctx.Done():
			case <-w.killc:
			case <-w.cfg.Clock.After(backoff):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = w.cfg.PollInterval
		w.countAccepted(resp.Acks)
		// Every ack is final (duplicate and orphan included): drop them.
		pending = pending[:0]
		lingerC, lingerFired = nil, false
		for _, g := range resp.Grants {
			grants <- g
			outstanding++
		}
		if len(resp.Grants) == 0 && outstanding == 0 {
			// Fleet-wide idle: nothing leased anywhere. Re-poll lazily,
			// and no later than liveness asks.
			select {
			case <-ctx.Done():
			case <-w.killc:
			case <-liveC:
			case <-w.cfg.Clock.After(w.cfg.PollInterval):
			}
		}
	}

	if w.killed.Load() {
		return // abrupt death posts nothing; expiry recovers the leases
	}
	// Job-end barrier: let the slots finish the cells they hold, then
	// flush the stragglers.
	stopSlots()
	pending = append(pending, w.reclaim(grants, results, &outstanding)...)
	if len(pending) > 0 {
		w.flushFinal(pending)
	}
}

// liveEvery is how long the pump may go without a lease:batch call:
// the hub's heartbeat_ms, jittered ±20% so a fleet started together,
// or re-registered together after a hub restart, does not call the hub
// in lockstep.
func (w *Worker) liveEvery(rnd *rand.Rand) time.Duration {
	every := time.Duration(w.registration().HeartbeatMS) * time.Millisecond
	if every <= 0 {
		every = time.Second
	}
	return time.Duration(float64(every) * (0.8 + 0.4*rnd.Float64()))
}

// flushFinal delivers the job-end completions as a pure lease:batch
// flush (max 0) on a detached context, so finished work survives the
// worker's own exit: a bounded retry of transient failures with
// backoff under a 2 s deadline. Past the budget, or on a permanent
// refusal, the results are dropped — expiry reassigns the cells, and
// re-execution is bit-identical, so only cycles are lost. A 404 ends
// the retry quietly: the hub settles completions before it checks the
// worker, so they already landed.
func (w *Worker) flushFinal(pending []CompleteRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	delay := 100 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := w.leaseBatch(ctx, 0, pending)
		if err == nil {
			w.countAccepted(resp.Acks)
			return
		}
		if isUnknownWorker(err) {
			return
		}
		if !api.Transient(err) {
			break
		}
		w.cfg.Logf("dispatch worker %s: final flush of %d completions failed (%v), retrying", w.cfg.Name, len(pending), err)
		select {
		case <-ctx.Done():
		case <-w.cfg.Clock.After(delay):
		}
		delay *= 2
	}
	w.cfg.Logf("dispatch worker %s: dropping %d completions — hub will reassign", w.cfg.Name, len(pending))
}

// countAccepted adds the completions the hub accepted to Completed.
// Every ack is final, so duplicates and orphans are simply dropped.
func (w *Worker) countAccepted(acks []CompleteStatus) {
	for _, st := range acks {
		if st == CompleteAccepted {
			w.completedCount.Add(1)
		}
	}
}

// reclaim settles the pipeline after the slots were told to stop:
// undelivered grants are abandoned (lease expiry recovers them) and
// every outstanding result is collected. Returns the completions the
// slots still held.
func (w *Worker) reclaim(grants <-chan Grant, results <-chan slotResult, outstanding *int) []CompleteRequest {
	var comps []CompleteRequest
	deadline := w.cfg.Clock.After(5 * time.Second)
	for *outstanding > 0 {
		select {
		case <-grants:
			*outstanding = *outstanding - 1
		case r := <-results:
			*outstanding = *outstanding - 1
			if r.comp != nil {
				comps = append(comps, *r.comp)
			}
		case <-w.killc:
			return nil
		case <-deadline:
			// A wedged cell: give up; its lease expires into a retry.
			return comps
		}
	}
	return comps
}

// kill flips the worker into the dead state (fault injection only).
func (w *Worker) kill() {
	if w.killed.CompareAndSwap(false, true) {
		w.cfg.Logf("dispatch worker %s: killed by fault injection", w.cfg.Name)
		close(w.killc)
	}
}

// isUnknownWorker reports a 404 — the hub does not know this worker ID
// (expired or hub restart); the cure is re-registration.
func isUnknownWorker(err error) bool {
	var e *api.Error
	return errors.As(err, &e) && e.StatusCode == http.StatusNotFound
}

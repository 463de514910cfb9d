// Package server is ptestd: the campaign job server. It accepts suite
// specs (the exact JSON `ptest suite` takes) over HTTP, queues them on
// a bounded priority queue, executes them on a worker pool through the
// shared campaign engine, and memoizes every cell in the
// content-addressed result store — so a warm daemon answers a repeated
// sweep without executing a single cell. Progress streams per job over
// SSE in plan order; /metrics exposes the counters; SIGTERM drains
// gracefully (running jobs finish, queued ones are cancelled, partial
// work is preserved as Interrupted reports).
//
//	POST   /api/v1/jobs            submit a spec (?priority=N), 202 + JobInfo
//	GET    /api/v1/jobs            list jobs, newest first
//	GET    /api/v1/jobs/{id}        one job's JobInfo
//	DELETE /api/v1/jobs/{id}        cancel (queued: immediate; running: next cell)
//	GET    /api/v1/jobs/{id}/report the finished report (?canonical=1)
//	GET    /api/v1/jobs/{id}/events SSE: replay + follow `cell` events, final `done`
//	GET    /api/v1/jobs/{id}/spec   the defaulted spec (a worker's plan-cache fill)
//	POST   /api/v1/workers          register a fleet worker (see workers.go)
//	GET    /metrics                 plain-text counters
//	GET    /healthz                 liveness
//
// A hub always owns its store, and a job is the only way into it: a
// client that wants the hub's cells submits its spec (`ptest suite
// -hub-url`) and reads the job's stream and report. Cells enter the
// store only as results of the hub's jobs, computed on the hub's slots
// or completed over the workers endpoints; jobs that miss the same cell
// share its one execution. The workers endpoints (workers.go) are the
// one way to spread a job over machines: registered workers lease
// cells and stay live by leasing, the hub survives their crashes via
// lease expiry and retry, and with zero workers every job simply runs
// on the hub's slots.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/lru"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/tenant"
	"repro/internal/webui"
)

// Config sizes the daemon. Zero values default sensibly.
type Config struct {
	// Workers is the job concurrency (default: one per CPU). The cells
	// the hub executes itself share its dispatcher's slots, one per CPU,
	// whatever a spec's cell_parallelism; each cell's trials follow the
	// spec's trial_parallelism.
	Workers int
	// QueueCap bounds the backlog (default 64); past it submissions get
	// 503 and ErrQueueFull.
	QueueCap int
	// MaxJobs bounds retained job state (default 512): once exceeded,
	// the oldest terminal jobs — their reports and progress logs — are
	// pruned so a long-lived daemon's memory stays bounded. Queued and
	// running jobs are never pruned.
	MaxJobs int
	// Store memoizes cells across jobs. Nil gets a private memory-only
	// store so the daemon always deduplicates repeated work.
	Store store.CellStore
	// Dispatch tunes the fleet dispatcher (lease TTLs, worker expiry,
	// retry budget). The dispatcher always exists — with no registered
	// workers its hub slots execute every miss, so a solo daemon
	// computes what a fleet would. Its Events and Store are the
	// server's.
	Dispatch dispatch.Config
	// Tenancy configures auth, rate limits, and per-tenant quotas. The
	// zero value is anonymous mode with no limits — a daemon with it is
	// indistinguishable from one that predates multi-tenancy.
	Tenancy tenant.Config
	// Events is the fleet-wide observability recorder: job, cell, lease,
	// worker, store, and tenant lifecycle events flow into it and out
	// through GET /api/v1/events. Nil (the zero value) disables the
	// event log — /api/v1/events answers 404 and nothing is recorded,
	// keeping the daemon byte-identical to a pre-observability one.
	Events *eventlog.Recorder
}

// metrics are the /metrics counters. Monotonic totals plus two gauges
// derived at render time.
type metrics struct {
	submitted, rejected, completed, failed, cancelled atomic.Uint64
	cellsExecuted, cellsCached                        atomic.Uint64

	// Wire traffic on the dispatch endpoints: lease:batch requests
	// and the cells they granted, plus once-per-job spec fetches by
	// plan-cache misses.
	leaseWireBatch, leaseWireBatchCells atomic.Uint64
	specWireGet                         atomic.Uint64

	// Per-tool cell accounting, fed from every finished report (fleet or
	// local, events on or off): cells run and cells that found at least
	// one bug, per tool label — the dashboard's bug-rate curves.
	toolMu       sync.Mutex
	toolCells    map[string]uint64
	toolBugCells map[string]uint64
}

// countTool folds one finished report's cells into the per-tool
// counters.
func (m *metrics) countTool(rep *report.Report) {
	if rep == nil {
		return
	}
	m.toolMu.Lock()
	defer m.toolMu.Unlock()
	if m.toolCells == nil {
		m.toolCells = map[string]uint64{}
		m.toolBugCells = map[string]uint64{}
	}
	for _, c := range rep.Cells {
		m.toolCells[c.Tool]++
		if c.Summary.Bugs > 0 {
			m.toolBugCells[c.Tool]++
		}
	}
}

// Server is the daemon. Construct with New, serve Handler() on any
// net/http server, Start() the workers, and Drain() on shutdown.
type Server struct {
	cfg      Config
	store    store.CellStore
	disp     *dispatch.Dispatcher
	guard    *tenant.Guard
	queue    *jobQueue
	mux      *http.ServeMux
	handler  http.Handler
	met      metrics
	events   *eventlog.Recorder // nil when the event log is disabled
	started  time.Time
	draining atomic.Bool
	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup
	poolOnce sync.Once

	mu   sync.Mutex
	jobs map[string]*Job
	ord  []string // submission order
	seq  uint64

	planMu sync.Mutex
	plans  *lru.Cache[*suite.Plan] // SHA-256 of a submitted body → its plan
}

// New builds a server. It does not start workers or listen.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = engine.Normalize(-1)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 512
	}
	if cfg.Store == nil {
		st, err := store.Open(store.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	// The dispatcher puts what it executes into the server's store, and
	// the dispatcher and store share the server's recorder: every layer
	// emits into one sequenced stream. A nil recorder makes each of
	// these a no-op.
	cfg.Dispatch.Store = cfg.Store
	cfg.Dispatch.Events = cfg.Events
	if cfg.Events != nil {
		if es, ok := cfg.Store.(interface {
			SetEvents(*eventlog.Recorder)
		}); ok {
			es.SetEvents(cfg.Events)
		}
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		disp:    dispatch.New(cfg.Dispatch),
		guard:   tenant.NewGuard(cfg.Tenancy),
		queue:   newJobQueue(cfg.QueueCap),
		jobs:    map[string]*Job{},
		plans:   lru.New[*suite.Plan](suite.PlanCacheBudget),
		events:  cfg.Events,
		started: time.Now(),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /api/v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("GET /api/v1/workers", s.handleWorkerList)
	s.mux.HandleFunc("DELETE /api/v1/workers/{id}", s.handleWorkerDeregister)
	s.mux.HandleFunc("POST /api/v1/workers/{id}/lease:batch", s.handleWorkerLeaseBatch)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/spec", s.handleJobSpec)
	s.mux.HandleFunc("GET /api/v1/events", s.handleFleetEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// The embedded dashboard: static assets only — every number it
	// renders comes over the public JSON/SSE endpoints with whatever
	// credentials the viewer pastes in, so the UI has no privileged
	// access path.
	s.mux.Handle("GET /ui/", http.StripPrefix("/ui", webui.Handler()))
	s.mux.HandleFunc("GET /ui", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/ui/", http.StatusMovedPermanently)
	})
	s.handler = s.withAuth(s.mux)
	return s, nil
}

// Handler is the HTTP surface, mountable on net/http or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// withAuth fronts every /api/v1 route with tenant resolution: in
// anonymous mode (no keyring) every request passes as the shared
// anonymous tenant; with a keyring, a missing or unknown key is a 401
// envelope before any handler runs. /metrics and /healthz stay open —
// scrapers and probes don't hold credentials.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/") {
			t, err := s.guard.Authenticate(r)
			if err != nil {
				w.Header().Set("WWW-Authenticate", `Bearer realm="ptestd"`)
				api.WriteError(w, http.StatusUnauthorized, "%v", err)
				return
			}
			r = r.WithContext(tenant.NewContext(r.Context(), t))
		}
		next.ServeHTTP(w, r)
	})
}

// Start launches the worker pool of Config.Workers goroutines; later
// calls do nothing, so the pool never grows past that job concurrency.
// Pop enforces the per-tenant in-flight cap at dequeue: a tenant at its
// cap has its jobs skipped (not rejected) until one resolves, while
// other tenants' jobs behind them in the queue proceed — no
// head-of-line blocking.
func (s *Server) Start() {
	s.poolOnce.Do(s.startPool)
}

func (s *Server) startPool() {
	acquire := func(j *Job) bool {
		ok := s.guard.AcquireJob(j.tenant)
		if !ok {
			s.events.Emit(eventlog.Event{
				Type: eventlog.TypeTenantDeferred, Job: j.info.ID,
				Tenant: j.tenant.Name, Detail: "in-flight cap reached; skipped at dequeue",
			})
		}
		return ok
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, acquired, ok := s.queue.Pop(acquire)
				if !ok {
					return
				}
				// A submission can slip past the draining check and into
				// the queue just before it closes; drain semantics say
				// queued jobs cancel, so resolve it here instead of
				// running a full sweep during shutdown.
				if s.draining.Load() {
					if acquired {
						s.guard.ReleaseJob(j.tenant)
					}
					if ok, wasQueued := j.requestCancel(); ok && wasQueued {
						s.met.cancelled.Add(1)
						s.events.Emit(eventlog.Event{
							Type: eventlog.TypeJobCancelled, Job: j.info.ID,
							Tenant: j.tenant.Name, Detail: "cancelled by drain",
						})
					}
					continue
				}
				s.runJob(j)
				if acquired {
					// The freed slot may unblock a skipped job; rescan.
					s.guard.ReleaseJob(j.tenant)
					s.queue.Kick()
				}
			}
		}()
	}
}

// Drain is the graceful-shutdown path: refuse new submissions, cancel
// still-queued jobs, let running jobs finish, and wait for the pool to
// exit. Call after the HTTP listener has stopped accepting.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	for _, id := range s.ord {
		if j := s.jobs[id]; j.status() == JobQueued {
			if ok, wasQueued := j.requestCancel(); ok && wasQueued {
				s.met.cancelled.Add(1)
				s.events.Emit(eventlog.Event{
					Type: eventlog.TypeJobCancelled, Job: id,
					Tenant: j.tenant.Name, Detail: "cancelled by drain",
				})
			}
		}
	}
	s.mu.Unlock()
	s.queue.Close()
	s.wg.Wait()
	s.baseStop()
	s.disp.Close()
}

// runJob executes one popped job end to end.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	plan := j.start(cancel)
	if plan == nil {
		return // cancelled while queued
	}
	scope := eventlog.Scoped{R: s.events, Job: j.info.ID, Tenant: j.tenant.Name}
	scope.Emit(eventlog.Event{Type: eventlog.TypeJobStarted})
	runStart := time.Now()
	// Every store miss waits in the dispatcher's table at once: a
	// worker's first lease:batch fills its pipeline, and the hub's slots,
	// not the spec's cell_parallelism, bound what the hub executes
	// itself. Digest and CellKey exclude the field, so the report and
	// the stored cells are the same at any width.
	run := plan.WithCellParallelism(len(plan.Cells()))
	rep, err := run.Run(ctx, jsonlSplitter{j: j}, suite.Options{
		Store: s.store,
		// The dispatcher runs each missed key once for every job waiting
		// on it: under a fleet worker's lease or — zero workers,
		// exhausted retry budget — on a hub slot. Store hits never reach
		// it.
		Exec:   s.disp.Executor(j.info.ID, j.tenant.Name, j.info.Priority, plan),
		Events: scope,
	})
	durMS := float64(time.Since(runStart).Microseconds()) / 1000
	if rep != nil {
		s.met.cellsCached.Add(rep.StoreHits)
		s.met.cellsExecuted.Add(rep.StoreMisses)
	}
	s.met.countTool(rep)
	switch {
	case err == nil:
		s.met.completed.Add(1)
		j.finish(JobDone, rep, nil)
		scope.Emit(eventlog.Event{
			Type: eventlog.TypeJobDone, DurMS: durMS,
			Detail: fmt.Sprintf("%d cells (%d cached)", len(rep.Cells), rep.StoreHits),
		})
	case errors.Is(err, suite.ErrInterrupted):
		// Cancelled mid-run: the plan-order prefix is preserved as a
		// partial, Interrupted report.
		s.met.cancelled.Add(1)
		j.finish(JobCancelled, rep, err)
		scope.Emit(eventlog.Event{
			Type: eventlog.TypeJobInterrupted, DurMS: durMS,
			Detail: fmt.Sprintf("%d cells kept", len(rep.Cells)),
		})
	default:
		s.met.failed.Add(1)
		j.finish(JobFailed, nil, err)
		scope.Emit(eventlog.Event{
			Type: eventlog.TypeJobFailed, DurMS: durMS, Detail: err.Error(),
		})
	}
}

// --- HTTP handlers ---------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJobInfo is writeJSON for one JobInfo, in the same bytes.
func writeJobInfo(w http.ResponseWriter, code int, info JobInfo) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	bp := replyBufs.Get().(*[]byte)
	*bp = appendJobInfo((*bp)[:0], &info, true)
	_, _ = w.Write(*bp)
	replyBufs.Put(bp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	t := tenant.FromContext(r.Context())
	if ra, ok := s.guard.AllowSubmit(t); !ok {
		secs := tenant.RetryAfterSeconds(ra)
		s.events.Emit(eventlog.Event{
			Type: eventlog.TypeTenantThrottled, Tenant: t.Name,
			Detail: fmt.Sprintf("submit rate; retry in %ds", secs),
		})
		api.WriteErrorCode(w, http.StatusTooManyRequests, "rate_limited", secs,
			"tenant %s over its submission rate; retry in %ds", t.Name, secs)
		return
	}
	requested := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		var err error
		if requested, err = strconv.Atoi(p); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad priority %q", p)
			return
		}
	}
	// The effective priority is the tenant's role band plus the clamped
	// client adjustment: an admin job always outranks a default job
	// always outranks a batch job, whatever ?priority claims.
	priority := t.Role.QueuePriority(requested)
	plan, err := s.resolvePlan(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	// The backlog quota is checked under the same lock that registers
	// the job, so concurrent submissions cannot both slip under the cap.
	if max := s.guard.MaxQueued(t); max > 0 && s.queuedForLocked(t.Name) >= max {
		s.mu.Unlock()
		s.guard.CountRejected(t)
		s.met.rejected.Add(1)
		s.events.Emit(eventlog.Event{
			Type: eventlog.TypeTenantRejected, Tenant: t.Name,
			Detail: fmt.Sprintf("backlog quota: %d jobs queued (cap %d)", max, max),
		})
		api.WriteErrorCode(w, http.StatusTooManyRequests, "quota_exceeded", 0,
			"tenant %s already has %d jobs queued (cap %d)", t.Name, max, max)
		return
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	j := newJob(id, plan, priority, t)
	s.jobs[id] = j
	s.ord = append(s.ord, id)
	s.pruneLocked()
	s.mu.Unlock()

	// Logged before the push: once queued, the job may start at once, and
	// its job.started must not precede its job.submitted in the log.
	s.events.Emit(eventlog.Event{
		Type: eventlog.TypeJobSubmitted, Job: id, Tenant: t.Name,
		Detail: fmt.Sprintf("%s: %d cells, priority %d", j.info.Suite, j.info.TotalCells, priority),
	})
	if err := s.queue.Push(j, priority); err != nil {
		// Keep the job registered but resolve it as failed — deleting it
		// would leave a watcher that attached in the registration window
		// parked forever on a phantom job. Pruning bounds the leftovers.
		j.finish(JobFailed, nil, err)
		s.met.rejected.Add(1)
		s.events.Emit(eventlog.Event{
			Type: eventlog.TypeJobFailed, Job: id, Tenant: t.Name, Detail: err.Error(),
		})
		// Queue-full is transient by nature — a worker will pop soon. Tell
		// retrying clients when to come back rather than letting them guess.
		api.WriteErrorCode(w, http.StatusServiceUnavailable, "unavailable", 1, "%v", err)
		return
	}
	s.met.submitted.Add(1)
	writeJobInfo(w, http.StatusAccepted, j.Info())
}

// maxSpecBytes bounds a submitted spec. Specs are small; a body past
// 8 MiB is abuse, not a matrix.
const maxSpecBytes = 8 << 20

// resolvePlan returns the plan of a submitted spec body. A hub resolves
// each distinct body once: the plan cache holds the plans of the bodies
// it was submitted, keyed by their SHA-256, so a resubmitted spec skips
// decoding, defaults, validation, expansion, digest and cell keys. On a
// miss suite.ParsePlan validates exactly as suite.Parse, the CLI's
// path, does: a bad spec comes back as one greppable message, which
// handleSubmit answers with status 400, and is not cached.
func (s *Server) resolvePlan(body io.Reader) (*suite.Plan, error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(body)
	src := buf.Bytes()
	*bp = src
	if err != nil {
		// A body past the limit, or cut short, is decoded from the bytes
		// read and then the error, as if the decoder read the body
		// itself, so its answer stays what it was; it is not cached.
		return suite.ParsePlan(io.MultiReader(bytes.NewReader(src), errReader{err}))
	}
	sum := sha256.Sum256(src)
	s.planMu.Lock()
	plan, ok := s.plans.Get(string(sum[:]))
	s.planMu.Unlock()
	if ok {
		return plan, nil
	}
	if plan, err = suite.ParsePlan(bytes.NewReader(src)); err != nil {
		return nil, err
	}
	s.planMu.Lock()
	if cached, ok := s.plans.Get(string(sum[:])); ok {
		plan = cached // a concurrent submit of the same bytes got here first
	} else {
		s.plans.Add(string(sum[:]), plan, plan.Weight(len(src)))
	}
	s.planMu.Unlock()
	return plan, nil
}

// bodyBufs recycles the buffers submitted specs are read into; a plan
// keeps nothing of the bytes it was decoded from.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// queuedForLocked counts one tenant's still-queued jobs. Callers hold
// s.mu.
func (s *Server) queuedForLocked(name string) int {
	n := 0
	for _, j := range s.jobs {
		if j.tenant.Name == name && j.status() == JobQueued {
			n++
		}
	}
	return n
}

// pruneLocked drops the oldest terminal jobs past MaxJobs so reports
// and progress logs don't accumulate forever. It runs on every submit
// once the hub is full, so it stops at the last job it drops. Callers
// hold s.mu.
func (s *Server) pruneLocked() {
	excess := len(s.ord) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.ord[:0]
	for i, id := range s.ord {
		if excess == 0 {
			kept = append(kept, s.ord[i:]...)
			break
		}
		if s.jobs[id].status().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.ord = kept
}

func (s *Server) lookup(r *http.Request) (*Job, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id], id
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]JobInfo, 0, len(s.ord))
	for _, id := range s.ord {
		infos = append(infos, s.jobs[id].Info())
	}
	s.mu.Unlock()
	// Newest first: the natural "what is my daemon doing" view.
	sort.SliceStable(infos, func(i, k int) bool { return infos[i].ID > infos[k].ID })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, id := s.lookup(r)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJobInfo(w, http.StatusOK, j.Info())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, id := s.lookup(r)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	ok, wasQueued := j.requestCancel()
	if !ok {
		api.WriteError(w, http.StatusConflict, "job %s already %s", id, j.Info().Status)
		return
	}
	// A running job's cancelled counter ticks in runJob when the worker
	// observes the interrupt; a queued job's ticks here — and its queue
	// slot is freed immediately instead of waiting for a worker to pop
	// and discard it.
	if wasQueued {
		s.queue.Remove(j)
		s.met.cancelled.Add(1)
		s.events.Emit(eventlog.Event{
			Type: eventlog.TypeJobCancelled, Job: id, Tenant: j.tenant.Name,
			Detail: "cancelled while queued",
		})
	}
	writeJobInfo(w, http.StatusOK, j.Info())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, id := s.lookup(r)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	rep := j.Report()
	if rep == nil {
		api.WriteError(w, http.StatusConflict, "job %s is %s: no report yet", id, j.Info().Status)
		return
	}
	encode := report.Append
	if r.URL.Query().Get("canonical") != "" {
		encode = report.AppendCanonical
	}
	// The report is encoded whole before anything is sent, so the reply
	// declares its length instead of going out chunked.
	bp := replyBufs.Get().(*[]byte)
	data, err := encode((*bp)[:0], rep)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "job %s: %v", id, err)
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	}
	*bp = data
	replyBufs.Put(bp)
}

// replyBufs recycles the encoding buffers of report and JobInfo
// replies; a ResponseWriter keeps no slice it is given, so a buffer is
// free once written.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// streamBufs are one job stream's frame slice and done-frame bytes,
// reused for every batch the stream writes.
type streamBufs struct {
	frames []api.Frame
	done   []byte
}

// streamBufPool recycles streamBufs once their stream has ended.
var streamBufPool = sync.Pool{New: func() any { return new(streamBufs) }}

// handleEvents is the job's SSE stream: the completed plan-order
// prefix, then live cells, then one terminal `done` event. Cell events
// are numbered 1..n in plan order, so a watcher resuming with
// Last-Event-ID never re-reads the prefix and never misses a cell.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, id := s.lookup(r)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	from, ok := cursor(w, "Last-Event-ID", r.Header.Get("Last-Event-ID"), 0)
	if !ok {
		return
	}
	// serveSSE writes each batch before it asks for the next, so one
	// frame slice and one done buffer serve the whole stream.
	sb := streamBufPool.Get().(*streamBufs)
	defer func() {
		clear(sb.frames[:cap(sb.frames)]) // the pool keeps no job's lines alive
		streamBufPool.Put(sb)
	}()
	s.serveSSE(w, r, func() ([]api.Frame, <-chan struct{}, bool) {
		lines, upd, info, terminal := j.watch(int(from))
		frames := sb.frames[:0]
		for _, line := range lines {
			from++
			frames = append(frames, api.Frame{ID: from, Event: "cell", Data: line})
		}
		if terminal {
			sb.done = appendJobInfo(sb.done[:0], &info, false)
			frames = append(frames, api.Frame{Event: "done", Data: sb.done})
		}
		sb.frames = frames
		return frames, upd, terminal
	})
}

// handleMetrics lives in prom.go: real Prometheus exposition format
// (# HELP/# TYPE headers, escaped labels) over the same counters.

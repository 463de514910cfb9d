// Worker-side wire tests: the job-end flush retries on the lease:batch
// wire, so finished cells survive the worker's own exit even when the
// hub fails the first attempt; refusals that cannot heal end the run
// (a bad key) or drop the refused completions instead of looping; and
// lease:batch alone keeps a busy worker live.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dispatch/faultinject"
	"repro/internal/eventlog"
	"repro/internal/suite"
)

func TestNewWorkerRejectsBadHubURLs(t *testing.T) {
	// A comma list parses as one host ("127.0.0.1:1,http:"), so without
	// the check the worker would retry registration against it forever.
	for _, bad := range []string{"", "hub:8321", "http://127.0.0.1:1,http://127.0.0.1:2"} {
		if _, err := NewWorker(WorkerConfig{HubURL: bad}); err == nil {
			t.Fatalf("hub URL %q accepted", bad)
		}
	}
}

// mustPlan resolves spec into the plan a hub hands its executor.
func mustPlan(t *testing.T, spec *suite.Spec) *suite.Plan {
	t.Helper()
	p, err := suite.NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWorkerFinalFlushRetriesLeaseBatch(t *testing.T) {
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()

	d := New(Config{})
	t.Cleanup(d.Close)
	// A registration that never polls keeps the fleet non-empty, so the
	// executor enqueues every cell for a lease instead of running it
	// in-process, and the worker's first poll is granted the whole plan.
	d.Register("placeholder")
	exec := d.Executor("j1", "t1", 0, mustPlan(t, spec))
	waiters := make(chan error, len(cells))
	for _, c := range cells {
		go func(c suite.Cell) {
			_, err := exec(context.Background(), spec, c)
			waiters <- err
		}(c)
	}
	waitPending(t, d, len(cells))

	// The hub answers the first lease:batch that carries completions
	// with 503.
	var wireCalls atomic.Int64
	var flushes atomic.Int32
	hub := benchHub(d, map[string][]byte{"j1": specJSON}, &wireCalls)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/lease:batch") {
			body, _ := io.ReadAll(r.Body)
			var req LeaseBatchRequest
			if json.Unmarshal(body, &req) == nil && len(req.Completions) > 0 && flushes.Add(1) == 1 {
				http.Error(w, "hub overloaded", http.StatusServiceUnavailable)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		hub.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	// The sever hook only observes: once the last cell has run, ctx is
	// cancelled before the pump sees that cell's result, and the long
	// linger keeps the earlier ones pending, so every completion is
	// left to the job-end flush.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	wk, err := NewWorker(WorkerConfig{
		HubURL: ts.URL, Name: "exiting", Parallelism: 2, LeaseBatch: 16,
		PollInterval:   10 * time.Millisecond,
		CompleteLinger: time.Hour,
		Hooks: &faultinject.Hooks{SeverCompletion: func(string) bool {
			if int(ran.Add(1)) == len(cells) {
				cancel()
			}
			return false
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wk.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	// Run returns after the final flush and the deregistration, so the
	// counters are settled.
	if got := flushes.Load(); got != 2 {
		t.Fatalf("hub saw %d completion flushes, want 2 (the failed one and its retry)", got)
	}
	if got := wk.Completed(); got != uint64(len(cells)) {
		t.Errorf("Completed() = %d, want %d", got, len(cells))
	}
	m := d.Metrics()
	if m.RemoteCompletions != uint64(len(cells)) {
		t.Errorf("RemoteCompletions = %d, want %d", m.RemoteCompletions, len(cells))
	}
	if m.LeasesExpired != 0 {
		t.Errorf("LeasesExpired = %d, want 0: the retried flush must deliver before deregistration", m.LeasesExpired)
	}
	if m.LocalCells != 0 {
		t.Errorf("LocalCells = %d, want 0", m.LocalCells)
	}
	if t.Failed() {
		return
	}
	for range cells {
		select {
		case err := <-waiters:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a cell's waiter never resolved")
		}
	}
}

func TestWorkerUnauthorizedEndsRun(t *testing.T) {
	for _, route := range []struct{ name, suffix string }{
		{"register", "/api/v1/workers"}, {"lease:batch", "/lease:batch"},
	} {
		t.Run(route.name, func(t *testing.T) {
			d := New(Config{})
			t.Cleanup(d.Close)
			var wireCalls atomic.Int64
			hub := benchHub(d, nil, &wireCalls)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, route.suffix) {
					api.WriteError(w, http.StatusUnauthorized, "tenant: missing or unknown API key")
					return
				}
				hub.ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)

			wk, err := NewWorker(WorkerConfig{HubURL: ts.URL, APIKey: "wrong", PollInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := wk.Run(ctx); !errors.Is(err, api.ErrUnauthorized) {
				t.Fatalf("Run = %v, want an error matching api.ErrUnauthorized", err)
			}
		})
	}
}

func TestWorkerDropsCompletionsRefusedForGood(t *testing.T) {
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()

	// The default 30s lease TTL keeps every refused cell leased for the
	// whole test, so no completion comes back through a re-grant.
	d := New(Config{})
	t.Cleanup(d.Close)
	d.Register("placeholder")
	exec := d.Executor("j1", "t1", 0, mustPlan(t, spec))
	execCtx, stopExec := context.WithCancel(context.Background())
	t.Cleanup(stopExec)
	for _, c := range cells {
		go func(c suite.Cell) { _, _ = exec(execCtx, spec, c) }(c)
	}
	waitPending(t, d, len(cells))

	// The hub refuses every lease:batch that carries completions with a
	// 400 and counts how often each lease's completion arrives.
	var wireCalls, quietCalls atomic.Int64
	var mu sync.Mutex
	sent := map[string]int{}
	hub := benchHub(d, map[string][]byte{"j1": specJSON}, &wireCalls)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/lease:batch") {
			body, _ := io.ReadAll(r.Body)
			var req LeaseBatchRequest
			if json.Unmarshal(body, &req) == nil && len(req.Completions) > 0 {
				mu.Lock()
				for _, c := range req.Completions {
					sent[c.LeaseID]++
				}
				mu.Unlock()
				api.WriteError(w, http.StatusBadRequest, "bad lease batch body")
				return
			}
			mu.Lock()
			if len(sent) == len(cells) {
				quietCalls.Add(1)
			}
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		hub.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	wk, err := NewWorker(WorkerConfig{
		HubURL: ts.URL, Parallelism: 2, LeaseBatch: 16,
		PollInterval: 10 * time.Millisecond, CompleteLinger: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- wk.Run(ctx) }()

	// Every cell's completion has been refused once and the pump went on
	// polling: it is not wedged on the refused batch.
	for deadline := time.Now().Add(10 * time.Second); quietCalls.Load() < 3; {
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("pump stalled: completions sent %v, %d calls after the last refusal", sent, quietCalls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for lease, n := range sent {
		if n != 1 {
			t.Errorf("lease %s: completion sent %d times, want 1 (a refused completion is dropped)", lease, n)
		}
	}
}

// TestWorkerWithFullPipelineStaysLive: a worker whose only slot holds
// one cell for two and a half worker TTLs, well inside the lease TTL,
// keeps calling lease:batch and is never reaped; the cell completes
// remotely and no hub slot runs it.
func TestWorkerWithFullPipelineStaysLive(t *testing.T) {
	const workerTTL = time.Second
	plan := benchPlan(t)
	specJSON, err := json.Marshal(plan.Spec())
	if err != nil {
		t.Fatal(err)
	}
	rec := eventlog.New(eventlog.Config{})
	d := New(Config{WorkerTTL: workerTTL, LeaseTTL: time.Minute, Events: rec})
	t.Cleanup(d.Close)
	var wireCalls atomic.Int64
	hub := httptest.NewServer(benchHub(d, map[string][]byte{"j1": specJSON}, &wireCalls))
	t.Cleanup(hub.Close)

	wk, err := NewWorker(WorkerConfig{
		HubURL: hub.URL, Parallelism: 1, LeaseBatch: 1, PollInterval: 10 * time.Millisecond,
		Hooks: &faultinject.Hooks{KillBeforeExecute: func(string) bool {
			time.Sleep(workerTTL * 5 / 2) // the pipeline stays full meanwhile
			return false
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	for deadline := time.Now().Add(5 * time.Second); len(d.Workers()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	c := plan.Cells()[0]
	got, err := d.Executor("j1", "t1", 0, plan)(ctx, plan.Spec(), c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := suite.ExecuteCell(plan.Spec(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Summary != want.Summary {
		t.Fatalf("cell = %+v, want %+v", got, want)
	}
	if n := rec.Stats().ByType[eventlog.TypeWorkerReaped]; n != 0 {
		t.Fatalf("the busy worker was reaped %d times", n)
	}
	if m := d.Metrics(); m.RemoteCompletions != 1 || m.LocalCells != 0 || m.WorkersRegistered != 1 || m.LeasesExpired != 0 {
		t.Fatalf("metrics = %+v, want 1 remote completion from the one registration", m)
	}
}

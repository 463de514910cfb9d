// Multi-tenant API tests: the auth matrix over every /api/v1 route,
// rate-limit 429s with exact Retry-After arithmetic on a fake clock,
// role→priority mapping, backlog quotas, in-flight caps at dequeue,
// and the client's typed-error contract (fail fast on 401, wait the
// server's Retry-After on 429).
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/tenant"
)

// testKeyring is the two-tenant keyring most tests here share.
func testKeyring() tenant.Keyring {
	return tenant.Keyring{
		"alice-admin-key": {Name: "alice", Role: tenant.RoleAdmin},
		"bob-batch-key-1": {Name: "bob", Role: tenant.RoleBatch},
		"carol-user-key1": {Name: "carol", Role: tenant.RoleDefault},
	}
}

// apiRoutes enumerates every /api/v1 route the auth middleware must
// front. Bodies and IDs are bogus — the matrix only asserts what
// happens before the handler runs.
var apiRoutes = []struct {
	method, path string
}{
	{"POST", "/api/v1/jobs"},
	{"GET", "/api/v1/jobs"},
	{"GET", "/api/v1/jobs/j000001"},
	{"DELETE", "/api/v1/jobs/j000001"},
	{"GET", "/api/v1/jobs/j000001/report"},
	{"GET", "/api/v1/jobs/j000001/events"},
	{"GET", "/api/v1/jobs/j000001/spec"},
	{"POST", "/api/v1/workers"},
	{"GET", "/api/v1/workers"},
	{"DELETE", "/api/v1/workers/w1"},
	{"POST", "/api/v1/workers/w1/lease:batch"},
}

func TestAuthMatrixEveryRoute(t *testing.T) {
	anon, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(anon.Drain)
	enforced, err := New(Config{Tenancy: tenant.Config{Keys: testKeyring()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(enforced.Drain)

	call := func(h http.Handler, method, path, key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader("{}"))
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	for _, rt := range apiRoutes {
		// Anonymous daemon: keyless and even wrong-keyed requests reach the
		// handler (never 401) — byte-compatible with the pre-tenancy API.
		for _, key := range []string{"", "stray-key-12345"} {
			if rec := call(anon.Handler(), rt.method, rt.path, key); rec.Code == http.StatusUnauthorized {
				t.Errorf("anonymous %s %s key=%q: got 401", rt.method, rt.path, key)
			}
		}
		// Enforced daemon: no key and bad key are 401 envelopes; a valid
		// key gets through to whatever the handler answers.
		for _, key := range []string{"", "wrong-key-00001"} {
			rec := call(enforced.Handler(), rt.method, rt.path, key)
			if rec.Code != http.StatusUnauthorized {
				t.Errorf("enforced %s %s key=%q: got %d, want 401", rt.method, rt.path, key, rec.Code)
			}
			if body := rec.Body.String(); !strings.Contains(body, `"code":"unauthorized"`) {
				t.Errorf("enforced %s %s: 401 body missing envelope code: %s", rt.method, rt.path, body)
			}
		}
		if rec := call(enforced.Handler(), rt.method, rt.path, "carol-user-key1"); rec.Code == http.StatusUnauthorized {
			t.Errorf("enforced %s %s with valid key: still 401", rt.method, rt.path)
		}
	}

	// /metrics and /healthz stay open on the enforced daemon.
	for _, path := range []string{"/metrics", "/healthz"} {
		if rec := call(enforced.Handler(), "GET", path, ""); rec.Code != http.StatusOK {
			t.Errorf("enforced GET %s without key: got %d, want 200", path, rec.Code)
		}
	}
}

// TestClientCannotWriteTheStore: a tenant that posts a forged cell
// under a real cell key, in the body the hub's old cells:batch route
// took, finds no route, and a later job over that key reports what the
// simulator computes.
func TestClientCannotWriteTheStore(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	s, err := New(Config{Workers: 1, QueueCap: 4, Store: st, Tenancy: tenant.Config{Keys: testKeyring()}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)

	plan, err := suite.ParsePlan(strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	forged := fmt.Sprintf(`{"cells": [{"key": %q, "cell": {"id": %q, "workload": "forged", "tool": "adaptive", "summary": {"trials": 999}}}]}`,
		plan.Keys()[0], plan.Cells()[0].ID)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/cells:batch", strings.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer bob-batch-key-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("batch tenant's cell write: got %d, want 404", resp.StatusCode)
	}

	spec, err := suite.Parse(strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Write(&want, report.Canonical(direct)); err != nil {
		t.Fatal(err)
	}
	admin := NewClient(ts.URL, WithAPIKey("alice-admin-key"))
	ctx := context.Background()
	info, err := admin.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := admin.Watch(ctx, info.ID, nil); err != nil || final.Status != JobDone {
		t.Fatalf("admin job: %+v, %v", final, err)
	}
	got, err := admin.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("admin job's report differs from a local run:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}
}

func TestSubmitRateLimit429WithRetryAfter(t *testing.T) {
	fw := clock.NewFakeWall(time.Unix(0, 0))
	s, err := New(Config{Tenancy: tenant.Config{
		Keys:        testKeyring(),
		SubmitRate:  0.5, // one token per 2s: empty bucket answers Retry-After: 2
		SubmitBurst: 2,
		Clock:       fw,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)

	submit := func(key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/api/v1/jobs", strings.NewReader(tinySpec))
		req.Header.Set("Authorization", "Bearer "+key)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	for i := 0; i < 2; i++ {
		if rec := submit("carol-user-key1"); rec.Code != http.StatusAccepted {
			t.Fatalf("burst submit %d: got %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := submit("carol-user-key1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: got %d, want 429", rec.Code)
	}
	// At 0.5 tokens/s a fully drained bucket needs 2 whole seconds.
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"code":"rate_limited"`) ||
		!strings.Contains(body, `"retry_after_s":2`) {
		t.Fatalf("429 body missing envelope fields: %s", body)
	}
	// The admin role is exempt however hard it hammers.
	for i := 0; i < 10; i++ {
		if rec := submit("alice-admin-key"); rec.Code != http.StatusAccepted {
			t.Fatalf("admin submit %d throttled: %d", i, rec.Code)
		}
	}
	// Refill: one second buys half a token (still refused, shorter wait),
	// two buys the whole one.
	fw.Advance(time.Second)
	if rec := submit("carol-user-key1"); rec.Code != http.StatusTooManyRequests ||
		rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("half-refilled: got %d Retry-After=%q, want 429/\"1\"", rec.Code, rec.Header().Get("Retry-After"))
	}
	fw.Advance(time.Second)
	if rec := submit("carol-user-key1"); rec.Code != http.StatusAccepted {
		t.Fatalf("refilled submit: got %d", rec.Code)
	}
}

func TestRolePriorityMappingAndClamp(t *testing.T) {
	s, err := New(Config{Tenancy: tenant.Config{Keys: testKeyring()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		key      string
		priority int
		want     int
	}{
		{"alice-admin-key", 5, 1005},     // admin band + adjustment
		{"bob-batch-key-1", 5, -995},     // batch band + adjustment
		{"carol-user-key1", 5, 5},        // default band is zero
		{"carol-user-key1", 500, 99},     // clamped to +MaxPriorityAdjust
		{"bob-batch-key-1", -500, -1099}, // batch band + clamped floor
	} {
		cli := NewClient(ts.URL, WithAPIKey(tc.key))
		info, err := cli.Submit(context.Background(), strings.NewReader(tinySpec), tc.priority)
		if err != nil {
			t.Fatalf("submit key=%s: %v", tc.key, err)
		}
		if info.Priority != tc.want {
			t.Errorf("key=%s ?priority=%d: effective %d, want %d", tc.key, tc.priority, info.Priority, tc.want)
		}
	}
}

func TestBacklogQuotaExceeded(t *testing.T) {
	// No Start(): submissions stay queued, so the second one trips the
	// backlog cap deterministically.
	s, err := New(Config{Tenancy: tenant.Config{Keys: testKeyring(), MaxQueued: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	cli := NewClient(ts.URL, WithAPIKey("carol-user-key1"), WithRetryPolicy(0, time.Millisecond))
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
		t.Fatal(err)
	}
	_, err = cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: err = %v, want ErrQuotaExceeded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.Code != "quota_exceeded" {
		t.Fatalf("over-quota submit: %#v", err)
	}
	// Another tenant's backlog is its own.
	carol2 := NewClient(ts.URL, WithAPIKey("bob-batch-key-1"))
	if _, err := carol2.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
		t.Fatalf("other tenant blocked by carol's quota: %v", err)
	}
	// Admins are never quota'd.
	admin := NewClient(ts.URL, WithAPIKey("alice-admin-key"))
	for i := 0; i < 3; i++ {
		if _, err := admin.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
			t.Fatalf("admin submit %d: %v", i, err)
		}
	}
}

func TestInFlightCapSkipsAtDequeueNotHeadOfLine(t *testing.T) {
	g := tenant.NewGuard(tenant.Config{MaxInFlight: 1})
	bob := tenant.Tenant{Name: "bob", Role: tenant.RoleDefault}
	alice := tenant.Tenant{Name: "alice", Role: tenant.RoleDefault}
	acquire := func(j *Job) bool { return g.AcquireJob(j.tenant) }

	q := newJobQueue(8)
	mk := func(id string, who tenant.Tenant) *Job {
		return &Job{info: JobInfo{ID: id, Status: JobQueued}, tenant: who}
	}
	// Bob's two jobs outrank alice's one.
	if err := q.Push(mk("bob-1", bob), 10); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk("bob-2", bob), 10); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk("alice-1", alice), 0); err != nil {
		t.Fatal(err)
	}

	j1, acq, ok := q.Pop(acquire)
	if !ok || !acq || j1.info.ID != "bob-1" {
		t.Fatalf("first pop: %v %v %v", j1, acq, ok)
	}
	// Bob is at his cap: bob-2 is skipped, alice-1 pops past it.
	j2, _, ok := q.Pop(acquire)
	if !ok || j2.info.ID != "alice-1" {
		t.Fatalf("second pop got %q, want alice-1 (no head-of-line blocking)", j2.info.ID)
	}
	// Freeing bob's slot makes bob-2 eligible again.
	g.ReleaseJob(bob)
	q.Kick()
	j3, _, ok := q.Pop(acquire)
	if !ok || j3.info.ID != "bob-2" {
		t.Fatalf("third pop got %q, want bob-2", j3.info.ID)
	}
	var bobStats tenant.Stats
	for _, st := range g.Snapshot() {
		if st.Name == "bob" {
			bobStats = st
		}
	}
	if bobStats.Deferrals == 0 {
		t.Fatal("bob's skip was not counted as a deferral")
	}
}

func TestClientFailsFastOnUnauthorized(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		api.WriteError(w, http.StatusUnauthorized, "tenant: missing or unknown API key")
	}))
	t.Cleanup(ts.Close)

	cli := NewClient(ts.URL, WithAPIKey("wrong"), WithRetryPolicy(3, time.Millisecond))
	_, err := cli.Submit(context.Background(), strings.NewReader(tinySpec), 0)
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
	if !strings.Contains(err.Error(), "HTTP 401") {
		t.Fatalf("error message lost the status: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("client attempted %d calls on a 401, want exactly 1 (fail fast)", n)
	}
}

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			api.WriteErrorCode(w, http.StatusTooManyRequests, "rate_limited", 3, "slow down")
			return
		}
		writeJSON(w, http.StatusAccepted, JobInfo{ID: "j000001", Status: JobQueued})
	}))
	t.Cleanup(ts.Close)

	fw := clock.NewFakeWall(time.Unix(0, 0))
	cli := NewClient(ts.URL, WithRetryPolicy(2, time.Millisecond))
	cli.wall = fw

	done := make(chan error, 1)
	go func() {
		_, err := cli.Submit(context.Background(), strings.NewReader(tinySpec), 0)
		done <- err
	}()

	// The client must park on the fake wall for the server's full 3s —
	// not its own 1ms backoff — before re-submitting.
	deadline := time.Now().Add(5 * time.Second)
	for fw.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never began waiting on the wall")
		}
		time.Sleep(time.Millisecond)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d calls before the Retry-After elapsed, want 1", n)
	}
	fw.Advance(2 * time.Second) // not enough: 2s < Retry-After 3s
	select {
	case err := <-done:
		t.Fatalf("client gave up or retried early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fw.Advance(time.Second) // completes the server's stated 3s
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retried submit failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never retried after the Retry-After elapsed")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("total calls %d, want 2", n)
	}
	// And the error itself is the typed sentinel when retries exhaust.
	var ae *APIError
	alwaysThrottle := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteErrorCode(w, http.StatusTooManyRequests, "rate_limited", 1, "slow down")
	}))
	t.Cleanup(alwaysThrottle.Close)
	cli2 := NewClient(alwaysThrottle.URL, WithRetryPolicy(0, time.Millisecond))
	_, err := cli2.Submit(context.Background(), strings.NewReader(tinySpec), 0)
	if !errors.Is(err, ErrRateLimited) || !errors.As(err, &ae) || ae.RetryAfter != time.Second {
		t.Fatalf("exhausted throttle err = %#v, want ErrRateLimited with RetryAfter=1s", err)
	}
}

func TestMetricsPerTenantLines(t *testing.T) {
	s, err := New(Config{Tenancy: tenant.Config{
		Keys:        testKeyring(),
		SubmitRate:  0.001,
		SubmitBurst: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	cli := NewClient(ts.URL, WithAPIKey("carol-user-key1"), WithRetryPolicy(0, time.Millisecond))
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit: %v, want ErrRateLimited", err)
	}
	// A bad key ticks the auth-failure counter.
	bad := NewClient(ts.URL, WithAPIKey("nope"), WithRetryPolicy(0, time.Millisecond))
	if _, err := bad.Submit(ctx, strings.NewReader(tinySpec), 0); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad-key submit: %v, want ErrUnauthorized", err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		`ptestd_tenant_requests_total{tenant="carol"} 2`,
		`ptestd_tenant_throttled_total{tenant="carol"} 1`,
		`ptestd_auth_rejected_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestE2EMultiTenant runs two tenants against one enforced hub: bob
// hammers past his rate limit and in-flight cap while alice's sweep
// must complete with a canonical report byte-identical to a local run
// — tenancy isolates, it does not perturb results.
func TestE2EMultiTenant(t *testing.T) {
	keys := tenant.Keyring{
		"alice-key-00001": {Name: "alice", Role: tenant.RoleDefault},
		"bob-key-0000002": {Name: "bob", Role: tenant.RoleBatch},
	}
	s, err := New(Config{
		Workers:  2,
		QueueCap: 32,
		Tenancy: tenant.Config{
			Keys:        keys,
			SubmitRate:  0.0001, // effectively: the burst is the budget
			SubmitBurst: 3,
			MaxInFlight: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	ctx := context.Background()

	// The reference run, same as the single-tenant e2e.
	spec, err := suite.Parse(strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := report.Write(&wantBuf, report.Canonical(direct)); err != nil {
		t.Fatal(err)
	}
	want := wantBuf.Bytes()

	// Bob burns his burst: a slow sweep first (it pins his single
	// in-flight slot, so the pops of his queued tinies defer), then two
	// fast ones, then the over-burst refusal.
	bob := NewClient(ts.URL, WithAPIKey("bob-key-0000002"), WithRetryPolicy(0, time.Millisecond))
	if _, err := bob.Submit(ctx, strings.NewReader(e2eSpec), 0); err != nil {
		t.Fatalf("bob submit 0: %v", err)
	}
	for i := 1; i < 3; i++ {
		if _, err := bob.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
			t.Fatalf("bob submit %d: %v", i, err)
		}
	}
	if _, err := bob.Submit(ctx, strings.NewReader(tinySpec), 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("bob's 4th submit: %v, want ErrRateLimited", err)
	}

	// Alice's sweep proceeds regardless.
	alice := NewClient(ts.URL, WithAPIKey("alice-key-00001"))
	info, err := alice.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatalf("alice submit while bob throttled: %v", err)
	}
	if info.Tenant != "alice" {
		t.Fatalf("job tagged %q, want alice", info.Tenant)
	}
	final, err := alice.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("alice's job: %+v", final)
	}
	got, err := alice.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("alice's report differs from a local run under multi-tenant load:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// The hub accounted for all of it.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		`ptestd_tenant_throttled_total{tenant="bob"} 1`,
		`ptestd_tenant_requests_total{tenant="alice"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// With MaxInFlight=1 and bob's slow sweep holding his only slot, the
	// idle worker's scans of his queued tinies recorded deferrals.
	if !strings.Contains(body, `ptestd_tenant_deferrals_total{tenant="bob"}`) {
		t.Errorf("metrics missing bob's deferral counter:\n%s", body)
	}
}

// Resilience tests for the Remote store client: bounded retry with
// backoff on transient failures, no retry on authoritative answers, and
// the circuit breaker's trip / fail-fast / half-open-probe / recovery
// cycle — the breaker clock faked so cooldowns elapse in microseconds.
package store

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/report"
)

// flakyCellServer answers every cells request with 503 while failing is
// true, and serves an empty cell store (404 miss / accepted batch)
// otherwise.
type flakyCellServer struct {
	failing atomic.Bool
	calls   atomic.Int64
}

func (f *flakyCellServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.calls.Add(1)
		if f.failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	})
}

func TestRemoteGetRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(report.Cell{ID: "c1"})
	}))
	t.Cleanup(ts.Close)

	r, err := OpenRemote(RemoteConfig{BaseURL: ts.URL, Retries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	cell, ok := r.Get("k1")
	if !ok || cell.ID != "c1" {
		t.Fatalf("Get after transient 503s = (%+v, %v), want the cell", cell, ok)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failed + 1 served)", got)
	}
}

func TestRemoteUnbatchedPutRetriesAsBatchOfOne(t *testing.T) {
	// Batching off: a Put is one synchronous cells:batch of one, under
	// the same retry budget as Get.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var body struct {
			Cells []CellEntry `json:"cells"`
		}
		if r.Method != http.MethodPost || r.URL.Path != cellsBatchPath ||
			json.NewDecoder(r.Body).Decode(&body) != nil || len(body.Cells) != 1 {
			t.Errorf("Put sent %s %s with %d cells, want POST %s with 1", r.Method, r.URL.Path, len(body.Cells), cellsBatchPath)
		}
		if calls.Load() <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)

	r, err := OpenRemote(RemoteConfig{BaseURL: ts.URL, Retries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	if err := r.Put("k1", report.Cell{ID: "c1"}); err != nil {
		t.Fatalf("Put after transient 503s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failed + 1 stored)", got)
	}
	if got := r.BreakerState(); got != "closed" {
		t.Fatalf("breaker = %s after a delivered Put, want closed", got)
	}
}

func TestRemoteAuthoritativeMissDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)

	r, err := OpenRemote(RemoteConfig{BaseURL: ts.URL, Retries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	if _, ok := r.Get("k1"); ok {
		t.Fatal("404 answered as a hit")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (a 404 miss is final)", got)
	}
}

func TestRemoteBreakerTripsFailsFastAndRecovers(t *testing.T) {
	srv := &flakyCellServer{}
	srv.failing.Store(true)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	fw := clock.NewFakeWall(time.Time{})
	r, err := OpenRemote(RemoteConfig{
		BaseURL:          ts.URL,
		Retries:          -1, // one wire attempt per call: failures count 1:1
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		Clock:            fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	// Three consecutive failures trip the circuit. Distinct keys keep
	// the LRU front and single-flight out of the way.
	for i, key := range []string{"a", "b", "c"} {
		if _, ok := r.Get(key); ok {
			t.Fatalf("Get %d succeeded against a failing server", i)
		}
	}
	if got := r.BreakerState(); got != "open" {
		t.Fatalf("breaker = %s after %d failures, want open", got, 3)
	}

	// Open circuit: calls fail instantly without touching the wire.
	before := srv.calls.Load()
	if _, ok := r.Get("d"); ok {
		t.Fatal("Get succeeded through an open breaker")
	}
	if err := r.Put("e", report.Cell{ID: "e"}); err == nil {
		t.Fatal("Put through an open breaker returned nil error")
	}
	if got := srv.calls.Load(); got != before {
		t.Fatalf("open breaker still made %d wire calls", got-before)
	}

	// Cooldown passes and the server heals: the half-open probe closes
	// the circuit again and traffic flows.
	fw.Advance(11 * time.Second)
	srv.failing.Store(false)
	if _, ok := r.Get("f"); ok {
		t.Fatal("healed empty server answered a hit, want a clean miss")
	}
	if got := r.BreakerState(); got != "closed" {
		t.Fatalf("breaker = %s after a successful probe, want closed", got)
	}
	if got := srv.calls.Load(); got != before+1 {
		t.Fatalf("probe made %d wire calls, want exactly 1", got-before)
	}
}

func TestRemoteBreakerReopensOnFailedProbe(t *testing.T) {
	srv := &flakyCellServer{}
	srv.failing.Store(true)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	fw := clock.NewFakeWall(time.Time{})
	r, err := OpenRemote(RemoteConfig{
		BaseURL:          ts.URL,
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Clock:            fw,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	r.Get("a")
	r.Get("b")
	if got := r.BreakerState(); got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}

	// The probe goes out, fails, and the circuit slams shut again — one
	// wire call per cooldown, not a failure streak.
	fw.Advance(11 * time.Second)
	before := srv.calls.Load()
	r.Get("c")
	if got := r.BreakerState(); got != "open" {
		t.Fatalf("breaker = %s after a failed probe, want open again", got)
	}
	if got := srv.calls.Load(); got != before+1 {
		t.Fatalf("failed probe made %d wire calls, want exactly 1", got-before)
	}
	if _, ok := r.Get("d"); ok {
		t.Fatal("Get succeeded through a re-opened breaker")
	}
	if got := srv.calls.Load(); got != before+1 {
		t.Fatal("re-opened breaker let another wire call through before the next cooldown")
	}
}

package store

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
)

// fakeCellServer emulates the ptestd cells API from the wire side — the
// client half of the protocol is pinned here, the server half in
// internal/server's tests. Backed by a plain map.
type fakeCellServer struct {
	mu    sync.Mutex
	cells map[string]report.Cell
	gets  atomic.Int64
	// batches/batchCells count accepted cells:batch requests — every
	// write, a lone Put being a batch of one — and the cells they
	// carried.
	batches    atomic.Int64
	batchCells atomic.Int64
	// hold, when non-nil, blocks GET handlers until closed — the
	// single-flight test's window.
	hold chan struct{}
}

func newFakeCellServer() *fakeCellServer {
	return &fakeCellServer{cells: map[string]report.Cell{}}
}

func (f *fakeCellServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/cells/{key}", func(w http.ResponseWriter, r *http.Request) {
		f.gets.Add(1)
		if f.hold != nil {
			<-f.hold
		}
		f.mu.Lock()
		cell, ok := f.cells[r.PathValue("key")]
		f.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(cell)
	})
	mux.HandleFunc("POST /api/v1/cells:batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Cells []CellEntry `json:"cells"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Cells) == 0 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.batches.Add(1)
		f.batchCells.Add(int64(len(body.Cells)))
		f.mu.Lock()
		for _, e := range body.Cells {
			f.cells[e.Key] = e.Cell
		}
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func newRemote(t *testing.T, baseURL string, memEntries int) *Remote {
	t.Helper()
	r, err := OpenRemote(RemoteConfig{BaseURL: baseURL, MemEntries: memEntries})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestRemoteRoundtripAndLRUFront(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	r := newRemote(t, ts.URL, 4)

	if _, ok := r.Get(key(1)); ok {
		t.Fatal("empty remote reported a hit")
	}
	if err := r.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	// Unbatched, the Put is a synchronous batch of one.
	if fake.batches.Load() != 1 || fake.batchCells.Load() != 1 {
		t.Fatalf("put did not reach the server as a batch of one: %d batches / %d cells",
			fake.batches.Load(), fake.batchCells.Load())
	}
	// The put populated the LRU front: this hit must not touch the wire.
	getsBefore := fake.gets.Load()
	got, ok := r.Get(key(1))
	if !ok || got.ID != cellFor(1).ID {
		t.Fatalf("roundtrip lost the cell: %+v ok=%v", got, ok)
	}
	if fake.gets.Load() != getsBefore {
		t.Fatalf("LRU-resident key refetched from the wire")
	}

	// A second client over the same server sees the shared cell — and
	// its own second Get is served locally.
	r2 := newRemote(t, ts.URL, 4)
	if _, ok := r2.Get(key(1)); !ok {
		t.Fatal("shared cell invisible to a second client")
	}
	wireGets := fake.gets.Load()
	if _, ok := r2.Get(key(1)); !ok || fake.gets.Load() != wireGets {
		t.Fatal("fetched cell not cached in the second client's front")
	}

	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.MemEntries != 1 {
		t.Fatalf("session counters wrong: %+v", st)
	}
	lt := r.Lifetime()
	if lt.Hits != 1 || lt.Misses != 1 || lt.Puts != 1 {
		t.Fatalf("lifetime counters wrong: %+v", lt)
	}
}

func TestRemoteSingleFlightCollapsesConcurrentFetches(t *testing.T) {
	fake := newFakeCellServer()
	fake.cells[key(1)] = cellFor(1)
	fake.hold = make(chan struct{})
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	r := newRemote(t, ts.URL, 4)

	const callers = 8
	var wg sync.WaitGroup
	results := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = r.Get(key(1))
		}(i)
	}
	// Let every caller reach the flight, then release the one request.
	for fake.gets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(fake.hold)
	wg.Wait()
	for i, ok := range results {
		if !ok {
			t.Fatalf("caller %d missed", i)
		}
	}
	if got := fake.gets.Load(); got != 1 {
		t.Fatalf("%d concurrent Gets issued %d HTTP requests, want 1", callers, got)
	}
	if st := r.Stats(); st.Hits != callers {
		t.Fatalf("every collapsed caller must count as a hit: %+v", st)
	}
}

func TestRemoteUnreachableServerDegradesToMiss(t *testing.T) {
	// A port nothing listens on: every Get is a miss, every Put an
	// error the caller can ignore — never a hang or a panic.
	r := newRemote(t, "http://127.0.0.1:1", 4)
	if _, ok := r.Get(key(1)); ok {
		t.Fatal("unreachable server reported a hit")
	}
	if err := r.Put(key(1), cellFor(1)); err == nil {
		t.Fatal("unreachable server accepted a put")
	}
	// The put still populated the local front (degraded caching), so a
	// repeat Get is served without the wire.
	if _, ok := r.Get(key(1)); !ok {
		t.Fatal("local front lost the cell after a failed push")
	}
}

func TestRemotePutAfterCloseErrors(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	r := newRemote(t, ts.URL, 4)
	_ = r.Close()
	if err := r.Put(key(1), cellFor(1)); err == nil {
		t.Fatal("put after close must error")
	}
}

func TestOpenRemoteRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "not a url", "host:8321", "/just/a/path", "http://127.0.0.1:1,http://127.0.0.1:2"} {
		if _, err := OpenRemote(RemoteConfig{BaseURL: bad}); err == nil {
			t.Fatalf("URL %q accepted", bad)
		}
	}
	if _, err := OpenRemote(RemoteConfig{BaseURL: "http://127.0.0.1:8321"}); err != nil {
		t.Fatalf("good URL rejected: %v", err)
	}
}

func TestRemoteDuplicatePutIsLocalNoop(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	r := newRemote(t, ts.URL, 4)
	if err := r.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	if fake.batchCells.Load() != 1 {
		t.Fatalf("duplicate put hit the wire: %d cells pushed", fake.batchCells.Load())
	}
	if st := r.Stats(); st.Puts != 1 {
		t.Fatalf("duplicate put counted: %+v", st)
	}
}

func TestRemoteKeyEscaping(t *testing.T) {
	// Keys are sha256 hex in practice, but the transport must not
	// corrupt anything path-unsafe either.
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()
	r := newRemote(t, ts.URL, 4)
	odd := "weird key/with strange#chars?"
	if err := r.Put(odd, cellFor(3)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ts.URL, "http://") {
		t.Fatal("sanity")
	}
	r2 := newRemote(t, ts.URL, 4)
	if got, ok := r2.Get(odd); !ok || got.ID != cellFor(3).ID {
		t.Fatalf("odd key lost in transport: %+v ok=%v", got, ok)
	}
}

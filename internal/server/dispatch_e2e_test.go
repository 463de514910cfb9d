// Chaos end-to-end tests for fleet dispatch: a hub ptestd, a worker
// fleet, injected failures — a worker killed mid-cell, a completion
// severed in flight — and the acceptance bar that matters: the sweep
// completes and the merged canonical report is byte-identical to a
// local `ptest suite -canonical` run. Plus the client-side resilience
// satellites: Submit retry on transient failures and SSE Watch
// reconnection via Last-Event-ID.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dispatch"
	"repro/internal/dispatch/faultinject"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
)

// startFleetWorker runs one dispatch worker against the hub until test
// cleanup; its Run error is delivered on the shared errc channel (which
// must have capacity for the whole fleet).
func startFleetWorker(t *testing.T, hubURL, name string, hooks *faultinject.Hooks, errc chan<- error) {
	t.Helper()
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		HubURL:       hubURL,
		Name:         name,
		PollInterval: 25 * time.Millisecond,
		Hooks:        hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { errc <- w.Run(ctx) }()
}

// waitForFleet blocks until the hub lists n registered workers.
func waitForFleet(t *testing.T, cli *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ws, err := cli.Workers(context.Background())
		if err == nil && len(ws) >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d registered workers", n)
}

func TestChaosE2EKilledWorkerAndSeveredCompletionStillByteIdentical(t *testing.T) {
	// The reference: the exact bytes `ptest suite -canonical` writes
	// locally, with no fleet anywhere near it.
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
	if len(direct.Cells) < 2 {
		t.Fatalf("spec expanded to %d cells, chaos needs at least 2", len(direct.Cells))
	}

	// Short TTLs so crash detection and lease expiry land in test time.
	s, cli := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		Dispatch: dispatch.Config{
			LeaseTTL:       1500 * time.Millisecond,
			WorkerTTL:      time.Second,
			RetryBaseDelay: 50 * time.Millisecond,
			RetryMaxDelay:  250 * time.Millisecond,
			StealAge:       time.Minute, // force the expiry-retry path, not steals
		},
	})

	// Fault script, shared by the whole fleet so it fires exactly once
	// each no matter which worker wins which poll race: whoever is
	// granted the plan's first cell dies holding the lease, and the
	// first completion of the second cell is eaten by the network.
	killCell, severCell := direct.Cells[0].ID, direct.Cells[1].ID
	var killedOnce, severedOnce atomic.Bool
	hooks := &faultinject.Hooks{
		KillBeforeExecute: func(cellID string) bool {
			return cellID == killCell && killedOnce.CompareAndSwap(false, true)
		},
		SeverCompletion: func(cellID string) bool {
			return cellID == severCell && severedOnce.CompareAndSwap(false, true)
		},
	}
	errc := make(chan error, 3)
	startFleetWorker(t, cli.BaseURL(), "chaos-1", hooks, errc)
	startFleetWorker(t, cli.BaseURL(), "chaos-2", hooks, errc)
	startFleetWorker(t, cli.BaseURL(), "chaos-3", hooks, errc)
	waitForFleet(t, cli, 3)

	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cli.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job under chaos finished %s: %+v", final.Status, final)
	}

	got, err := cli.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("canonical report from the chaos fleet differs from the local run:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}

	// Exactly one worker died, and it died the hard way: the first Run
	// to return must be the killed one (the survivors run until test
	// cleanup cancels them).
	select {
	case err := <-errc:
		if err != faultinject.ErrKilled {
			t.Fatalf("worker exited mid-test with %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no worker reported ErrKilled")
	}

	// The hub saw the failures and recovered through leases, not luck:
	// the killed worker's lease and the severed completion's lease both
	// expired and were retried, and real work still flowed remotely.
	m := s.disp.Metrics()
	if m.LeasesExpired < 2 {
		t.Errorf("LeasesExpired = %d, want >= 2 (kill + severed completion)", m.LeasesExpired)
	}
	if m.LeaseRetries < 1 {
		t.Errorf("LeaseRetries = %d, want >= 1", m.LeaseRetries)
	}
	if m.RemoteCompletions < uint64(len(direct.Cells))-1 {
		t.Errorf("RemoteCompletions = %d, want >= %d", m.RemoteCompletions, len(direct.Cells)-1)
	}
	if m.WorkersRegistered < 3 {
		t.Errorf("WorkersRegistered = %d, want >= 3", m.WorkersRegistered)
	}
}

func TestE2EZeroWorkersDegradesToLocalExecution(t *testing.T) {
	// No fleet at all: the hub slots run every cell, and no lease is
	// granted.
	s, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cli.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job finished %s", final.Status)
	}
	m := s.disp.Metrics()
	if m.LocalCells == 0 {
		t.Error("no cells counted as local with zero workers")
	}
	if m.LeasesGranted != 0 {
		t.Errorf("granted %d leases with no workers", m.LeasesGranted)
	}
}

// TestOverlappingJobsExecuteEachCellOnce: two jobs of one spec
// submitted at once to a two-job hub share every cell either misses.
// Hub-locally and through one worker, the hub executes each of the
// spec's cells once and the store puts each once, and both jobs'
// canonical reports are the local run's bytes.
func TestOverlappingJobsExecuteEachCellOnce(t *testing.T) {
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
	cells := uint64(len(direct.Cells))

	for _, fleet := range []int{0, 1} {
		t.Run(fmt.Sprintf("%d workers", fleet), func(t *testing.T) {
			st, err := store.Open(store.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = st.Close() })
			s, cli := newTestServer(t, Config{Workers: 2, QueueCap: 4, Store: st})
			errc := make(chan error, 1)
			for i := 0; i < fleet; i++ {
				startFleetWorker(t, cli.BaseURL(), "solo", nil, errc)
			}
			waitForFleet(t, cli, fleet)

			ctx := context.Background()
			ids := make(chan string, 2)
			for i := 0; i < 2; i++ {
				go func() {
					info, err := cli.Submit(ctx, strings.NewReader(e2eSpec), 0)
					if err != nil {
						t.Error(err)
					}
					ids <- info.ID
				}()
			}
			for i := 0; i < 2; i++ {
				id := <-ids
				if t.Failed() {
					t.FailNow()
				}
				if final, err := cli.Watch(ctx, id, nil); err != nil || final.Status != JobDone {
					t.Fatalf("job %s: %+v, %v", id, final, err)
				}
				got, err := cli.ReportBytes(ctx, id, true)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), got) {
					t.Fatalf("job %s's canonical report differs from the local run:\nwant:\n%s\ngot:\n%s", id, want.Bytes(), got)
				}
			}
			m := s.disp.Metrics()
			if executed := m.LocalCells + m.RemoteCompletions; executed != cells {
				t.Errorf("executed %d cells (%d on hub slots, %d leased), want %d: one per key", executed, m.LocalCells, m.RemoteCompletions, cells)
			}
			if fleet > 0 && m.LocalCells != 0 {
				t.Errorf("LocalCells = %d with a live worker, want every cell leased", m.LocalCells)
			}
			if puts := st.Stats().Puts; puts != cells {
				t.Errorf("store puts = %d, want %d", puts, cells)
			}
		})
	}
}

// TestHeartbeatRouteIsGone: a worker stays live through lease:batch
// alone; the old heartbeat path is no route.
func TestHeartbeatRouteIsGone(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 1})
	var reg dispatch.Registration
	wirePost(t, cli.BaseURL()+"/api/v1/workers", dispatch.RegisterRequest{Name: "w"}, http.StatusCreated, &reg)
	resp, err := http.Post(cli.BaseURL()+"/api/v1/workers/"+reg.WorkerID+"/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST heartbeat: HTTP %d, want 404 or 405", resp.StatusCode)
	}
}

func TestSSEResumeSkipsReplayedPrefix(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Watch(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	// countCells reads the finished job's stream with an optional
	// Last-Event-ID and counts replayed cell events.
	countCells := func(lastID string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, cli.BaseURL()+"/api/v1/jobs/"+info.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		cells := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if sc.Text() == "event: cell" {
				cells++
			}
		}
		return cells
	}

	if got := countCells(""); got != 1 {
		t.Errorf("fresh stream replayed %d cells, want 1", got)
	}
	if got := countCells("1"); got != 0 {
		t.Errorf("resumed stream replayed %d cells, want 0 (client already saw event 1)", got)
	}
}

func TestClientSubmitRetriesTransientFailuresHonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			api.WriteError(w, http.StatusServiceUnavailable, "job queue full")
			return
		}
		writeJSON(w, http.StatusAccepted, JobInfo{ID: "j000001", Status: JobQueued})
	}))
	t.Cleanup(ts.Close)

	cli := NewClient(ts.URL)
	cli.retryBase = time.Millisecond
	info, err := cli.Submit(context.Background(), strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatalf("Submit after transient 503s: %v", err)
	}
	if info.ID != "j000001" {
		t.Fatalf("info = %+v", info)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d submissions, want 3 (2 rejected + 1 accepted)", got)
	}
}

func TestClientSubmitDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		api.WriteError(w, http.StatusBadRequest, "bad spec")
	}))
	t.Cleanup(ts.Close)

	cli := NewClient(ts.URL)
	cli.retryBase = time.Millisecond
	if _, err := cli.Submit(context.Background(), strings.NewReader("{"), 0); err == nil {
		t.Fatal("Submit of a bad spec succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d submissions, want 1 (400 is not transient)", got)
	}
}

func TestWatchReconnectsWithLastEventIDExactlyOnce(t *testing.T) {
	cellJSON := func(id string) string {
		raw, err := json.Marshal(report.Cell{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	doneJSON, err := json.Marshal(JobInfo{ID: "j000001", Status: JobDone, DoneCells: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A scripted hub: the first connection streams one cell and then
	// drops dead; the reconnection must carry Last-Event-ID: 1 and gets
	// the rest of the stream.
	var conns atomic.Int32
	var resumedFrom atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			fmt.Fprintf(w, "id: 1\nevent: cell\ndata: %s\n\n", cellJSON("cell-a"))
			fl.Flush()
			// Connection dies here: no done event.
		default:
			resumedFrom.Store(r.Header.Get("Last-Event-ID"))
			fmt.Fprintf(w, "id: 2\nevent: cell\ndata: %s\n\n", cellJSON("cell-b"))
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", doneJSON)
			fl.Flush()
		}
	}))
	t.Cleanup(ts.Close)

	cli := NewClient(ts.URL)
	cli.retryBase = time.Millisecond
	var seen []string
	final, err := cli.Watch(context.Background(), "j000001", func(c report.Cell) {
		seen = append(seen, c.ID)
	})
	if err != nil {
		t.Fatalf("Watch across a dropped stream: %v", err)
	}
	if final.Status != JobDone || final.DoneCells != 2 {
		t.Fatalf("final = %+v", final)
	}
	if len(seen) != 2 || seen[0] != "cell-a" || seen[1] != "cell-b" {
		t.Fatalf("cells seen %v, want exactly [cell-a cell-b] — no loss, no duplicates", seen)
	}
	if got := resumedFrom.Load(); got != "1" {
		t.Fatalf("reconnection carried Last-Event-ID %v, want \"1\"", got)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("hub saw %d connections, want 2", got)
	}
}

func TestWatchReadsStreamToEndAndReusesConnection(t *testing.T) {
	doneJSON, err := json.Marshal(JobInfo{ID: "j000001", Status: JobDone})
	if err != nil {
		t.Fatal(err)
	}
	// A scripted hub flushes done and ends the stream a moment later. A
	// Watch that closes the body before that end arrives makes the
	// transport discard the connection, and the next call dials again.
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", doneJSON)
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
	}))
	var dials atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	cli := NewClient(ts.URL)
	for i := 0; i < 2; i++ {
		final, err := cli.Watch(context.Background(), "j000001", nil)
		if err != nil || final.Status != JobDone {
			t.Fatalf("Watch %d: %+v, %v", i, final, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("two Watch calls opened %d connections, want 1", got)
	}
}

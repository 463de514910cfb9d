// Wire-cost benchmarks for the dispatch hot path: how many HTTP round
// trips one executed cell costs on the lease:batch wire at batch depth
// 1 versus 16. The hub here is a minimal httptest mux mapped straight
// onto Dispatcher methods — the real server package wraps the same
// calls — with a counter on the dispatch-plane routes (lease:batch and
// the spec fetch; heartbeats are liveness-plane and identical at any
// depth). scripts/bench-dispatch.sh renders the roundtrips/cell numbers
// into BENCH_dispatch.json.
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/suite"
)

// benchSpec expands to 6 cells (2 workloads × 1 op × 1 point × 3
// tools), each cheap enough that the bench measures wire shape, not
// schedule exploration.
const benchSpec = `{
	"name": "bench",
	"trials": 2,
	"keep_going": true,
	"max_steps": 100000,
	"workloads": [
		{"name": "quicksort", "seed": 5, "gc_every": 4},
		{"name": "spin"}
	],
	"ops": ["roundrobin"],
	"points": [{"n": 2, "s": 4}],
	"tools": [{"name": "adaptive"}, {"name": "chess", "max_schedules": 2}, {"name": "pct", "depth": 2}]
}`

// benchHub serves the worker wire for one Dispatcher, counting
// dispatch-plane round trips.
func benchHub(d *Dispatcher, specJSON []byte, wireCalls *atomic.Int64) http.Handler {
	ok := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		ok(w, http.StatusCreated, d.Register(req.Name))
	})
	mux.HandleFunc("POST /api/v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if !d.Heartbeat(r.PathValue("id")) {
			http.Error(w, "unknown worker", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /api/v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		d.Deregister(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /api/v1/workers/{id}/lease:batch", func(w http.ResponseWriter, r *http.Request) {
		wireCalls.Add(1)
		var req LeaseBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := d.LeaseBatch(r.PathValue("id"), req.Max, req.Completions)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		ok(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/spec", func(w http.ResponseWriter, r *http.Request) {
		wireCalls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(specJSON)
	})
	return mux
}

// benchDispatchWire drives cells through a hub + one worker at the
// given lease:batch depth and reports HTTP round trips per executed
// cell.
func benchDispatchWire(b *testing.B, leaseBatch int) {
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := suite.NewPlan(spec)
	if err != nil {
		b.Fatal(err)
	}
	cells := plan.Cells()

	d := New(Config{})
	defer d.Close()
	var wireCalls atomic.Int64
	hub := httptest.NewServer(benchHub(d, specJSON, &wireCalls))
	defer hub.Close()

	wk, err := NewWorker(WorkerConfig{
		HubURL: hub.URL, Name: "bench", Parallelism: 4,
		PollInterval:   10 * time.Millisecond,
		LeaseBatch:     leaseBatch,
		CompleteLinger: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wkDone := make(chan error, 1)
	go func() { wkDone <- wk.Run(ctx) }()
	defer func() { cancel(); <-wkDone }()
	for deadline := time.Now().Add(5 * time.Second); d.LiveWorkers() == 0; {
		if time.Now().After(deadline) {
			b.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// Rounds of len(cells) cells, a few jobs in flight at once so the
	// hub always has a backlog for a deep batch to collapse.
	rounds := (b.N + len(cells) - 1) / len(cells)
	b.ResetTimer()
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(r int) {
			defer func() { <-sem; wg.Done() }()
			exec := d.Executor(fmt.Sprintf("bench-%06d", r), "bench", 0, plan)
			var cw sync.WaitGroup
			for _, c := range cells {
				cw.Add(1)
				go func(c suite.Cell) {
					defer cw.Done()
					if _, err := exec(ctx, spec, c); err != nil {
						b.Error(err)
					}
				}(c)
			}
			cw.Wait()
		}(r)
	}
	wg.Wait()
	b.StopTimer()

	executed := rounds * len(cells)
	b.ReportMetric(float64(wireCalls.Load())/float64(executed), "roundtrips/cell")
	if m := d.Metrics(); m.LocalCells > 0 {
		b.Fatalf("%d cells fell back to local execution; wire cost unmeasured", m.LocalCells)
	}
}

func BenchmarkDispatchWire_Batched1(b *testing.B)  { benchDispatchWire(b, 1) }
func BenchmarkDispatchWire_Batched16(b *testing.B) { benchDispatchWire(b, 16) }

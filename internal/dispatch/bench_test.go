// Wire-cost benchmarks for the dispatch hot path: how many HTTP round
// trips one executed cell costs on the lease:batch wire at batch depth
// 1 versus 16. The hub here is a minimal httptest mux mapped straight
// onto Dispatcher methods — the real server package wraps the same
// calls — with a counter on the dispatch-plane routes (lease:batch,
// which also keeps the worker live, and the spec fetch).
// scripts/bench-dispatch.sh renders the roundtrips/cell numbers into
// BENCH_dispatch.json.
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
// dispatch-plane round trips; specs holds each job's spec JSON.
func benchHub(d *Dispatcher, specs map[string][]byte, wireCalls *atomic.Int64) http.Handler {
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
		_, _ = w.Write(specs[r.PathValue("id")])
	})
	return mux
}

// benchDispatchWire drives cells through a hub + one worker at the
// given lease:batch depth and reports HTTP round trips per executed
// cell: round trips over the completions the hub accepted, since
// jobs that miss one key share its execution.
func benchDispatchWire(b *testing.B, leaseBatch int) {
	spec, err := suite.Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	// Rounds of six cells on four lanes, so four jobs are in flight at
	// once and the hub always has a backlog for a deep batch to
	// collapse. A lane runs its rounds one after another under its own
	// seed: jobs in flight at once that missed the same keys would wait
	// on six shared units instead of a backlog.
	const lanes = 4
	rounds := (b.N + 5) / 6
	plans := make([]*suite.Plan, lanes)
	specs := map[string][]byte{}
	for l := range plans {
		s := *spec
		s.Seed = uint64(l + 1)
		if plans[l], err = suite.NewPlan(&s); err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(plans[l].Spec())
		if err != nil {
			b.Fatal(err)
		}
		for r := l; r < rounds; r += lanes {
			specs[benchJob(r)] = raw
		}
	}

	d := New(Config{})
	defer d.Close()
	var wireCalls atomic.Int64
	hub := httptest.NewServer(benchHub(d, specs, &wireCalls))
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
	for deadline := time.Now().Add(5 * time.Second); len(d.Workers()) == 0; {
		if time.Now().After(deadline) {
			b.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for l, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := l; r < rounds; r += lanes {
				exec := d.Executor(benchJob(r), "bench", 0, plan)
				var cw sync.WaitGroup
				for _, c := range plan.Cells() {
					cw.Add(1)
					go func() {
						defer cw.Done()
						if _, err := exec(ctx, plan.Spec(), c); err != nil {
							b.Error(err)
						}
					}()
				}
				cw.Wait()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	m := d.Metrics()
	if m.LocalCells > 0 {
		b.Fatalf("%d cells ran on hub slots; wire cost unmeasured", m.LocalCells)
	}
	b.ReportMetric(float64(wireCalls.Load())/float64(m.RemoteCompletions), "roundtrips/cell")
}

// benchJob names the bench's round r.
func benchJob(r int) string { return fmt.Sprintf("bench-%06d", r) }

func BenchmarkDispatchWire_Batched1(b *testing.B)  { benchDispatchWire(b, 1) }
func BenchmarkDispatchWire_Batched16(b *testing.B) { benchDispatchWire(b, 16) }

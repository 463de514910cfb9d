// Store v2 acceptance: the cells:batch endpoint's server half, and the
// headline perf criterion — a `ptest suite -store-url` client whose
// write-through batching collapses write round trips (and hub fsyncs)
// by at least 4× against the unbatched baseline of one batch-of-one
// POST per cell, while the hub's report for the same spec stays
// byte-identical to a local `ptest suite` run.
package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
)

func TestCellBatchEndpointStoresUnderOneRequest(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	srv, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: st})

	body := `{"cells": [
		{"key": "bk1", "cell": {"id": "w/op/n2s4/pd/adaptive", "workload": "w", "tool": "adaptive"}},
		{"key": "bk2", "cell": {"id": "w/op/n2s4/pd/chess", "workload": "w", "tool": "chess"}},
		{"key": "bk3", "cell": {"id": "w/op/n2s4/pd/pct", "workload": "w", "tool": "pct"}}
	]}`
	resp, err := http.Post(cli.BaseURL()+"/api/v1/cells:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch POST = %d, want 204", resp.StatusCode)
	}
	for _, k := range []string{"bk1", "bk2", "bk3"} {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("batched key %s not in the daemon store", k)
		}
	}
	// One wire round trip, one group-commit fsync, three cells.
	if got := srv.met.cellsWireBatch.Load(); got != 1 {
		t.Fatalf("batch counter = %d, want 1", got)
	}
	if got := srv.met.cellsWireBatchCells.Load(); got != 3 {
		t.Fatalf("batch cell counter = %d, want 3", got)
	}
	if got := st.Stats().Syncs; got != 1 {
		t.Fatalf("batch of 3 cost %d fsyncs, want 1", got)
	}

	// Degenerate bodies are rejected without touching the store.
	for _, bad := range []string{`{"cells": []}`, `{notjson`} {
		resp, err := http.Post(cli.BaseURL()+"/api/v1/cells:batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	if got := srv.met.cellsWireBatch.Load(); got != 1 {
		t.Fatalf("rejected batches counted: %d", got)
	}
}

// putOnlyStore hides a disk store's PutBatch, so that cells:batch takes
// its fallback loop of Puts, and counts the flushes.
type putOnlyStore struct {
	store.CellStore
	disk    *store.Store
	flushes atomic.Int32
}

func (p *putOnlyStore) Flush() error {
	p.flushes.Add(1)
	return p.disk.Flush()
}

// TestCellBatchFallbackFlushesBeforeReply: behind a store without
// PutBatch, cells:batch puts one cell at a time and flushes them before
// its 204, so a client is never told a batch landed that is not durable.
func TestCellBatchFallbackFlushesBeforeReply(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	ps := &putOnlyStore{CellStore: st, disk: st}
	_, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: ps})
	body := `{"cells": [
		{"key": "fk1", "cell": {"id": "w/op/n2s4/pd/adaptive", "workload": "w", "tool": "adaptive"}},
		{"key": "fk2", "cell": {"id": "w/op/n2s4/pd/pct", "workload": "w", "tool": "pct"}}
	]}`
	resp, err := http.Post(cli.BaseURL()+"/api/v1/cells:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch POST = %d, want 204", resp.StatusCode)
	}
	if got := ps.flushes.Load(); got != 1 {
		t.Fatalf("the fallback flushed %d times, want 1", got)
	}
	if st := st.Stats(); st.Puts != 2 || st.Syncs != 1 {
		t.Fatalf("%d puts under %d fsyncs before the reply, want 2 under 1", st.Puts, st.Syncs)
	}
}

// e2eBatchSpec doubles e2eSpec's points so the plan has 12 cells —
// enough for a ≥4× round-trip collapse to be measurable.
const e2eBatchSpec = `{
	"name": "e2e-batched",
	"trials": 2,
	"keep_going": true,
	"max_steps": 200000,
	"workloads": [
		{"name": "quicksort", "seed": 5, "gc_every": 4, "gc_leak_every": 2},
		{"name": "spin"}
	],
	"ops": ["roundrobin"],
	"points": [{"n": 4, "s": 8}, {"n": 6, "s": 10}],
	"tools": [{"name": "adaptive"}, {"name": "chess", "max_schedules": 4}, {"name": "pct", "depth": 2}]
}`

// newStoreHub stands up one hub daemon over a fresh local segment-log
// store: the server that a `ptest suite -store-url` client talks to.
func newStoreHub(t *testing.T) (*Server, *store.Store, *Client) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	srv, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: st})
	return srv, st, cli
}

// runOverRemote is `ptest suite -store-url base -store-batch batchSize`
// on e2eBatchSpec: suite.RunContext over a fresh store.Remote, so its
// LRU front starts empty and every lookup goes to the hub.
func runOverRemote(t *testing.T, base string, batchSize int) *report.Report {
	t.Helper()
	rem, err := store.OpenRemote(store.RemoteConfig{
		BaseURL:   base,
		BatchSize: batchSize,
		// Far past any test runtime: only the suite's job-end Flush (or
		// synchronous batches of one at batchSize 0) moves cells to the
		// hub.
		BatchDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	spec, err := suite.Parse(strings.NewReader(e2eBatchSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.RunContext(context.Background(), spec, nil, suite.Options{Store: rem})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestE2EOneHubBatchedWritesCollapseRoundTrips(t *testing.T) {
	// Baseline hub: batching off, every computed cell is one
	// batch-of-one round trip and one hub fsync.
	baseSrv, baseStore, baseCli := newStoreHub(t)
	baseCold := runOverRemote(t, baseCli.BaseURL(), 0)
	total := uint64(len(baseCold.Cells))
	if baseCold.StoreMisses != total || baseCold.StoreHits != 0 {
		t.Fatalf("baseline cold counters wrong: %d hits, %d misses of %d", baseCold.StoreHits, baseCold.StoreMisses, total)
	}
	baseTrips, baseSyncs := baseSrv.met.cellsWireBatch.Load(), baseStore.Stats().Syncs
	if baseTrips != total {
		t.Fatalf("baseline: %d write round trips for %d cells, want one each", baseTrips, total)
	}

	// Batched: the same spec through a write-through batcher sized past
	// the plan against a fresh hub, so the job-end Flush delivers
	// everything in one batch POST.
	srv, st, cli := newStoreHub(t)
	cold := runOverRemote(t, cli.BaseURL(), 64)
	if cold.StoreMisses != total || cold.StoreHits != 0 {
		t.Fatalf("batched cold counters wrong: %d hits, %d misses of %d", cold.StoreHits, cold.StoreMisses, total)
	}
	if total < 12 {
		t.Fatalf("spec plans %d cells, need ≥12 for the collapse bound", total)
	}

	// The headline criterion: ≥4× fewer write round trips and hub fsyncs
	// than the unbatched baseline.
	batches, syncs := srv.met.cellsWireBatch.Load(), st.Stats().Syncs
	if batches == 0 || 4*batches > baseTrips {
		t.Fatalf("write round trips: %d batches vs %d baseline — collapse under 4×", batches, baseTrips)
	}
	if syncs == 0 || 4*syncs > baseSyncs {
		t.Fatalf("hub fsyncs: %d batched vs %d baseline — collapse under 4×", syncs, baseSyncs)
	}
	if n := st.Stats().DiskEntries; uint64(n) != total {
		t.Fatalf("hub holds %d cells, plan has %d — lost or duplicated", n, total)
	}

	// A warm rerun through a fresh client executes nothing...
	warm := runOverRemote(t, cli.BaseURL(), 64)
	if warm.StoreMisses != 0 || warm.StoreHits != total {
		t.Fatalf("warm rerun executed cells: %d hits, %d misses of %d", warm.StoreHits, warm.StoreMisses, total)
	}

	// ...nor does a job of the same spec submitted to the hub...
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(e2eBatchSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	job, err := cli.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != JobDone || job.CellsExecuted != 0 || job.StoreHits != total {
		t.Fatalf("hub job over client-computed cells: %+v", job)
	}

	// ...and that job's report is byte-identical to a local run.
	spec, err := suite.Parse(strings.NewReader(e2eBatchSpec))
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
	got, err := cli.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("hub report differs from local canonical:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}
}

// Store v2 fleet acceptance: the cells:batch endpoint's server half,
// and the headline perf criterion — a two-hub sharded fleet whose
// write-through batching collapses write round trips (and hub fsyncs)
// by at least 4× against the unbatched baseline of one batch-of-one
// POST per cell, while the merged report stays byte-identical to a
// local `ptest suite` run.
package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
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

// e2eShardSpec doubles e2eSpec's points so the plan has 12 cells —
// enough for a ≥4× round-trip collapse to be measurable.
const e2eShardSpec = `{
	"name": "e2e-sharded",
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

// shardedFleet stands up two hub daemons (local segment-log stores)
// plus one worker daemon whose store is a Sharded client over both
// hubs, and submits e2eShardSpec to the worker.
type shardedFleet struct {
	hubStores []*store.Store
	hubSrvs   []*Server
	urls      []string
}

func newShardedFleet(t *testing.T) *shardedFleet {
	t.Helper()
	f := &shardedFleet{}
	for i := 0; i < 2; i++ {
		hs, err := store.Open(store.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = hs.Close() })
		srv, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: hs})
		f.hubStores = append(f.hubStores, hs)
		f.hubSrvs = append(f.hubSrvs, srv)
		f.urls = append(f.urls, cli.BaseURL())
	}
	return f
}

func (f *shardedFleet) worker(t *testing.T, batchSize int) *Client {
	t.Helper()
	sh, err := store.OpenSharded(store.ShardedConfig{
		BaseURLs:  f.urls,
		BatchSize: batchSize,
		// Far past any test runtime: only the suite's job-end Flush (or
		// synchronous batches of one at batchSize 0) moves cells to the
		// hubs.
		BatchDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sh.Close() })
	_, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: sh})
	return cli
}

func (f *shardedFleet) wireBatches() uint64 {
	var n uint64
	for _, s := range f.hubSrvs {
		n += s.met.cellsWireBatch.Load()
	}
	return n
}

func (f *shardedFleet) syncs() uint64 {
	var n uint64
	for _, s := range f.hubStores {
		n += s.Stats().Syncs
	}
	return n
}

func submitShardSpec(t *testing.T, cli *Client) JobInfo {
	t.Helper()
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(e2eShardSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cli.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job %s: %+v", info.ID, final)
	}
	return final
}

func TestE2ETwoHubShardedFleetCollapsesRoundTrips(t *testing.T) {
	// Baseline fleet: batching off, every computed cell is one
	// batch-of-one round trip and one hub fsync.
	base := newShardedFleet(t)
	baseCold := submitShardSpec(t, base.worker(t, 0))
	if baseCold.CellsExecuted != uint64(baseCold.TotalCells) || baseCold.StoreHits != 0 {
		t.Fatalf("baseline cold counters wrong: %+v", baseCold)
	}
	baseTrips, baseSyncs := base.wireBatches(), base.syncs()
	if baseTrips != uint64(baseCold.TotalCells) {
		t.Fatalf("baseline: %d write round trips for %d cells, want one each", baseTrips, baseCold.TotalCells)
	}

	// Batched fleet: the same spec through a write-through batcher sized
	// past the plan, so the job-end Flush delivers everything in one
	// batch POST per owning hub.
	fleet := newShardedFleet(t)
	workerA := fleet.worker(t, 64)
	cold := submitShardSpec(t, workerA)
	if cold.CellsExecuted != uint64(cold.TotalCells) || cold.StoreHits != 0 {
		t.Fatalf("batched cold counters wrong: %+v", cold)
	}
	if cold.TotalCells < 12 {
		t.Fatalf("spec plans %d cells, need ≥12 for the collapse bound", cold.TotalCells)
	}

	// The headline criterion: ≥4× fewer write round trips and hub fsyncs
	// than the unbatched baseline.
	batches, syncs := fleet.wireBatches(), fleet.syncs()
	if batches == 0 || 4*batches > baseTrips {
		t.Fatalf("write round trips: %d batches vs %d baseline — collapse under 4×", batches, baseTrips)
	}
	if syncs == 0 || 4*syncs > baseSyncs {
		t.Fatalf("hub fsyncs: %d batched vs %d baseline — collapse under 4×", syncs, baseSyncs)
	}

	// Correctness half: every cell landed on exactly one hub...
	var entries int
	for i, hs := range fleet.hubStores {
		n := hs.Stats().DiskEntries
		if n == 0 {
			t.Fatalf("hub %d owns no cells — rendezvous degenerate", i)
		}
		entries += n
	}
	if entries != cold.TotalCells {
		t.Fatalf("hubs hold %d cells, plan has %d — lost or duplicated", entries, cold.TotalCells)
	}

	// ...a second worker over the same hubs replays warm, executing 0...
	warm := submitShardSpec(t, fleet.worker(t, 64))
	if warm.CellsExecuted != 0 || warm.StoreHits != uint64(warm.TotalCells) {
		t.Fatalf("worker B re-executed cells: %+v", warm)
	}

	// ...and the merged report is byte-identical to a local run.
	spec, err := suite.Parse(strings.NewReader(e2eShardSpec))
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
	got, err := workerA.ReportBytes(context.Background(), "j000001", true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("sharded fleet report differs from local canonical:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}
}

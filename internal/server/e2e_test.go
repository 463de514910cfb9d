// End-to-end acceptance tests for the daemon: a suite submitted via
// the server yields a canonical report byte-identical to `ptest suite`
// on the same spec, and resubmitting an identical spec to a warm
// daemon executes zero cells — every one served from the
// content-addressed store.
package server

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
)

// e2eSpec exercises a faulty and a clean workload across three tools
// (including the registry-added pct) — representative but fast.
const e2eSpec = `{
	"name": "e2e",
	"trials": 2,
	"keep_going": true,
	"max_steps": 200000,
	"workloads": [
		{"name": "quicksort", "seed": 5, "gc_every": 4, "gc_leak_every": 2},
		{"name": "spin"}
	],
	"ops": ["roundrobin"],
	"points": [{"n": 4, "s": 8}],
	"tools": [{"name": "adaptive"}, {"name": "chess", "max_schedules": 4}, {"name": "pct", "depth": 2}]
}`

func TestE2EServerReportMatchesSuiteRun(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	_, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: st})
	ctx := context.Background()

	// The reference: the exact bytes `ptest suite -canonical` writes.
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

	info, err := cli.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	final, err := cli.Watch(ctx, info.ID, func(c report.Cell) { streamed = append(streamed, c.ID) })
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job failed: %+v", final)
	}

	got, err := cli.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("server canonical report differs from ptest suite:\nwant:\n%s\ngot:\n%s", want.Bytes(), got)
	}

	// SSE delivered every cell in plan order.
	if len(streamed) != len(direct.Cells) {
		t.Fatalf("streamed %d cells, plan has %d", len(streamed), len(direct.Cells))
	}
	for i, c := range direct.Cells {
		if streamed[i] != c.ID {
			t.Fatalf("stream order: position %d is %s, want %s", i, streamed[i], c.ID)
		}
	}
}

func TestE2EWarmResubmissionExecutesZeroCells(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	_, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: st})
	ctx := context.Background()

	submitAndWait := func() (JobInfo, []byte) {
		t.Helper()
		info, err := cli.Submit(ctx, strings.NewReader(e2eSpec), 0)
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
		raw, err := cli.ReportBytes(ctx, info.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		return final, raw
	}

	cold, coldBytes := submitAndWait()
	if cold.CellsExecuted != uint64(cold.TotalCells) || cold.StoreHits != 0 {
		t.Fatalf("cold job counters wrong: %+v", cold)
	}
	missesAfterCold := st.Stats().Misses

	warm, warmBytes := submitAndWait()
	// The acceptance criterion: zero cells executed, all served from the
	// store — asserted by the job's own counters AND the store's.
	if warm.CellsExecuted != 0 {
		t.Fatalf("warm resubmission executed %d cells", warm.CellsExecuted)
	}
	if warm.StoreHits != uint64(warm.TotalCells) {
		t.Fatalf("warm job hit %d of %d cells", warm.StoreHits, warm.TotalCells)
	}
	if got := st.Stats().Misses; got != missesAfterCold {
		t.Fatalf("store misses grew on warm resubmission: %d -> %d", missesAfterCold, got)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatal("warm canonical report differs from cold one")
	}
}

func TestE2EStoreSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	open := func() *store.Store {
		t.Helper()
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st1 := open()
	_, cli1 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: st1})
	info, err := cli1.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli1.Watch(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon over the same directory is already warm.
	st2 := open()
	t.Cleanup(func() { _ = st2.Close() })
	_, cli2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: st2})
	info2, err := cli2.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cli2.Watch(ctx, info2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.CellsExecuted != 0 || final.StoreHits != uint64(final.TotalCells) {
		t.Fatalf("restarted daemon recomputed cells: %+v", final)
	}
}

package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/store"
)

// warmSpec is perfbench's hub job shape (quickSpec in perfbench/hub.go
// at n=2): 2 workloads × 3 tools = 6 cells.
const warmSpec = `{"name":"quick","seed":7,"trials":2,"keep_going":true,"max_steps":100000,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4},{"name":"prodcons"}],
"ops":["roundrobin"],"points":[{"n":2,"s":4}],
"tools":[{"name":"adaptive"},{"name":"chess","max_schedules":2},{"name":"pct","depth":2}]}`

// The measured allocations of one all-hit job, without and with -race
// (Go 1.24, linux/amd64, 2 CPUs). Before the store lookups ran in one
// pass ahead of any fan-out, finished replies went out in one sized
// write, and specs, digests and JobInfo were resolved and encoded
// without rebuilt tables or reflection, a job allocated 500 objects and
// 65.5 kB (563 and 102.8 kB under -race). Before each job's spec was
// resolved once into a plan, and reports, JSONL lines and cell keys
// were encoded without reflection, it allocated 615 objects and
// 91.5 kB (700 and 130.8 kB under -race).
const (
	warmJobObjects     = 427
	warmJobBytes       = 52_400
	warmJobObjectsRace = 478
	warmJobBytesRace   = 87_600
)

// TestWarmJobAllocationBudget bounds what one hub job whose every cell
// is a store hit allocates, in objects and bytes, from Submit through
// Watch to the canonical report: perfbench's hub-warm operation, on an
// in-process hub with a disk store. Both counts repeat closely from run
// to run where its wall time does not. The warm-up runs past MaxJobs,
// so retention pruning is part of the measured steady state. The bounds
// are the measured counts plus 5%; sync.Pool drops items at random
// under the race detector, so a race build gets its own bounds.
func TestWarmJobAllocationBudget(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), MemEntries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	cli := NewClient(ts.URL)
	ctx := context.Background()

	var want []byte
	job := func(warm bool) {
		info, err := cli.Submit(ctx, strings.NewReader(warmSpec), 0)
		if err != nil {
			t.Fatal(err)
		}
		if info, err = cli.Watch(ctx, info.ID, nil); err != nil {
			t.Fatal(err)
		}
		if info.Status != JobDone || (warm && (info.StoreHits != 6 || info.CellsExecuted != 0)) {
			t.Fatalf("job %s: %s, %d hits, %d executed; want done with 6 hits", info.ID, info.Status, info.StoreHits, info.CellsExecuted)
		}
		canon, err := cli.ReportBytes(ctx, info.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = canon
		} else if !bytes.Equal(canon, want) {
			t.Fatalf("job %s: canonical report differs from the first job's", info.ID)
		}
	}
	job(false) // executes and stores the six cells
	for i := 0; i < 600; i++ {
		job(true)
	}
	const jobs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job(true)
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / jobs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1000
	t.Logf("one warm job allocates %.0f objects and %.1f kB", objs, kb)
	maxObjs, maxKB := float64(warmJobObjects)*1.05, float64(warmJobBytes)*1.05/1000
	if raceEnabled {
		maxObjs, maxKB = float64(warmJobObjectsRace)*1.05, float64(warmJobBytesRace)*1.05/1000
	}
	if objs > maxObjs || kb > maxKB {
		t.Fatalf("one warm job allocates %.0f objects and %.1f kB, want at most %.0f and %.1f", objs, kb, maxObjs, maxKB)
	}
}

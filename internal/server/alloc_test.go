package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
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
// (Go 1.24, linux/amd64, 2 CPUs, three runs of each test alone, the
// highest count kept), resubmitting the same spec bytes, so the hub's
// plan cache serves its plan, and renaming the spec on every job, so
// the plan cache misses while every cell still hits the store (the name
// is not part of a cell key).
const (
	warmJobObjects        = 318
	warmJobBytes          = 31_500
	warmJobObjectsRace    = 372
	warmJobBytesRace      = 65_600
	renamedJobObjects     = 379
	renamedJobBytes       = 38_100
	renamedJobObjectsRace = 445
	renamedJobBytesRace   = 73_200
)

// TestWarmJobAllocationBudget bounds what one hub job whose every cell
// is a store hit allocates, in objects and bytes, from Submit through
// Watch to the canonical report: perfbench's hub-warm operation, on an
// in-process hub with a disk store. Every job submits the same bytes,
// so its plan comes from the hub's plan cache. Both counts repeat
// closely from run to run where its wall time does not. The warm-up
// runs past MaxJobs, so retention pruning is part of the measured
// steady state. The bounds are the measured counts plus 5%; sync.Pool
// drops items at random under the race detector, so a race build gets
// its own bounds.
func TestWarmJobAllocationBudget(t *testing.T) {
	objs, kb := measureWarmJobs(t, false)
	checkBudget(t, objs, kb, warmJobObjects, warmJobBytes, warmJobObjectsRace, warmJobBytesRace)
}

// TestRenamedWarmJobAllocationBudget is TestWarmJobAllocationBudget
// with the spec renamed on every job: each submit misses the plan cache
// and resolves its spec, while each cell still hits the store.
func TestRenamedWarmJobAllocationBudget(t *testing.T) {
	objs, kb := measureWarmJobs(t, true)
	checkBudget(t, objs, kb, renamedJobObjects, renamedJobBytes, renamedJobObjectsRace, renamedJobBytesRace)
}

// measureWarmJobs runs one job that stores the six cells, 600 warm-up
// jobs and 2,000 measured ones, and returns the objects and kB one
// measured job allocates. With rename, the i-th job's spec is named
// q0000 + i instead of quick.
func measureWarmJobs(t *testing.T, rename bool) (objs, kb float64) {
	const warmups, jobs = 600, 2000
	specs := make([]string, 1+warmups+jobs)
	for i := range specs {
		specs[i] = warmSpec
		if rename {
			specs[i] = strings.Replace(warmSpec, `"name":"quick"`, fmt.Sprintf(`"name":"q%04d"`, i), 1)
		}
	}
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
	// A renamed spec changes the report's suite name and spec digest,
	// both of one length here, and nothing else; they are blanked in
	// place.
	blank := []struct{ field, with []byte }{
		{[]byte(`"suite": "`), []byte("quick")},
		{[]byte(`"spec_digest": "`), []byte("000000000000")},
	}
	n := 0
	job := func(warm bool) {
		info, err := cli.Submit(ctx, strings.NewReader(specs[n]), 0)
		n++
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
		for _, f := range blank {
			if i := bytes.Index(canon, f.field); i >= 0 {
				copy(canon[i+len(f.field):], f.with)
			}
		}
		if want == nil {
			want = canon
		} else if !bytes.Equal(canon, want) {
			t.Fatalf("job %s: canonical report differs from the first job's", info.ID)
		}
	}
	job(false) // executes and stores the six cells
	for i := 0; i < warmups; i++ {
		job(true)
	}
	var before, after runtime.MemStats
	gcs := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(gcs)
	gcBefore := gcs[0].Value.Uint64()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job(true)
	}
	runtime.ReadMemStats(&after)
	rtmetrics.Read(gcs)
	objs = float64(after.Mallocs-before.Mallocs) / jobs
	kb = float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1000
	t.Logf("one warm job allocates %.0f objects and %.1f kB; %.1f GC cycles per 1,000 jobs",
		objs, kb, float64(gcs[0].Value.Uint64()-gcBefore)*1000/jobs)
	return objs, kb
}

// checkBudget fails the test when objs or kb exceed the measured counts
// of this build, without or with -race, by more than 5%.
func checkBudget(t *testing.T, objs, kb float64, wantObjs, wantBytes, wantObjsRace, wantBytesRace int) {
	maxObjs, maxKB := float64(wantObjs)*1.05, float64(wantBytes)*1.05/1000
	if raceEnabled {
		maxObjs, maxKB = float64(wantObjsRace)*1.05, float64(wantBytesRace)*1.05/1000
	}
	if objs > maxObjs || kb > maxKB {
		t.Fatalf("one warm job allocates %.0f objects and %.1f kB, want at most %.0f and %.1f", objs, kb, maxObjs, maxKB)
	}
}

package suite

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestPlanKeysAndIndex: a plan's keys are Spec.CellKey of its cells in
// plan order, its index finds each cell by ID, and the copy
// WithCellParallelism makes shares both instead of computing them
// again.
func TestPlanKeysAndIndex(t *testing.T) {
	p, err := ParsePlan(strings.NewReader(hitPassSpec))
	if err != nil {
		t.Fatal(err)
	}
	n := p.Spec().CellParallelism
	wide := p.WithCellParallelism(n + 1)
	if wide.Spec().CellParallelism != n+1 || p.Spec().CellParallelism != n {
		t.Fatal("WithCellParallelism changed the wrong spec")
	}
	keys := wide.Keys() // computed through the copy first
	if len(keys) != len(p.Cells()) {
		t.Fatalf("%d keys for %d cells", len(keys), len(p.Cells()))
	}
	if &p.Keys()[0] != &keys[0] {
		t.Fatal("the plan and its WithCellParallelism copy computed their keys separately")
	}
	for i, c := range p.Cells() {
		if keys[i] != p.Spec().CellKey(c) {
			t.Fatalf("key %d = %s, want Spec.CellKey %s", i, keys[i], p.Spec().CellKey(c))
		}
		if j, ok := wide.CellIndex(c.ID); !ok || j != i {
			t.Fatalf("CellIndex(%s) = %d, %v; want %d", c.ID, j, ok, i)
		}
	}
	if _, ok := p.CellIndex("no/such/cell"); ok {
		t.Fatal("CellIndex found a cell the plan does not have")
	}
}

// TestPlanWeightCoversItsHeap: Weight, which bounds what a plan cache
// holds, is at least the heap a resolved plan with its keys retains,
// for a one-cell spec, perfbench's 6-cell hub job and both example
// suites.
func TestPlanWeightCoversItsHeap(t *testing.T) {
	srcs := map[string][]byte{
		"one-cell": []byte(`{"name":"warmup","seed":3,"trials":2,"max_steps":100000,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4}],
"ops":["roundrobin"],"points":[{"n":2,"s":4}],"tools":[{"name":"adaptive"}]}`),
		"hub-job": []byte(hitPassSpec),
	}
	for _, f := range []string{"smoke.json", "paper-sweep.json"} {
		b, err := os.ReadFile("../../examples/suite/" + f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = b
	}
	for name, src := range srcs {
		const n = 50
		plans := make([]*Plan, n)
		var before, after runtime.MemStats
		// Two cycles empty sync.Pool's victim cache too, so nothing freed
		// during the measurement predates it.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range plans {
			p, err := ParsePlan(bytes.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			p.Keys()
			plans[i] = p
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
		weight := plans[0].Weight(len(src))
		t.Logf("%s: %d cells from %d bytes hold %d bytes; weight %d", name, len(plans[0].Cells()), len(src), held, weight)
		if held > int64(weight) {
			t.Errorf("%s: a plan holds %d bytes, more than its weight %d", name, held, weight)
		}
		runtime.KeepAlive(plans)
	}
}

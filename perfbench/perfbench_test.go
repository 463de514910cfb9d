package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/suite"
)

// The traced store must answer every optional-face assertion the hub
// and the suite runner make exactly as the bare store does, or a traced
// run would take a different code path than an untraced one.
func TestTimedStoreFaces(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bare := optionalFaces(st)
	traced := optionalFaces(timedStore{Store: st, rec: newRecorder()})
	if len(bare) == 0 {
		t.Fatal("the disk store shows no optional faces; the check would be vacuous")
	}
	if !slices.Equal(bare, traced) {
		t.Fatalf("traced store faces %v, bare store faces %v", traced, bare)
	}
}

func TestTimedStoreRecordsSpans(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := newRecorder()
	rec.ownKeys("job-a", []string{"k"})
	rec.named("job-a", "000001")
	ts := timedStore{Store: st, rec: rec}
	if _, ok := ts.Get("k"); ok {
		t.Fatal("empty store hit")
	}
	spans := rec.snapshot()
	if len(spans) != 1 || spans[0].Name != "store.get" || spans[0].Job != "000001" {
		t.Fatalf("spans %+v, want one store.get of job 000001", spans)
	}
}

// A report that differs from the local sequential run must fail the
// gate, count its cells as failed, and make the run incorrect; the
// honest report must pass.
func TestGateFailsTamperedReport(t *testing.T) {
	specJSON := warmupSpec(7)
	spec, err := parseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	honest := canonicalBytes(rep)
	rep.Cells[0].Summary.Bugs++
	rep.Aggregate()
	tampered := canonicalBytes(rep)

	h, err := startHub(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for _, tc := range []struct {
		name string
		want []byte
		ok   bool
	}{{"honest", honest, true}, {"tampered", tampered, false}} {
		w := hubWorkload{
			next: func(string, int) []byte { return specJSON },
			want: func([]byte) ([]byte, error) { return tc.want, nil },
		}
		// A one-cell job per iteration; the second phase's jobs are store
		// hits and may fit several into the millisecond.
		var g gate
		lat, cells, _, _ := w.phase(h, tc.name, time.Millisecond, &g, nil)
		if g.attempted == 0 || g.correct() != tc.ok {
			t.Fatalf("%s: attempted %d failed %d correct %v, want correct=%v (%v)",
				tc.name, g.attempted, g.failed, g.correct(), tc.ok, g.problems)
		}
		passed := g.attempted - g.failed
		if !tc.ok && passed != 0 || len(lat) != passed || cells != passed {
			t.Fatalf("%s: %d of %d cells passed, but %d latencies and %d cells counted",
				tc.name, passed, g.attempted, len(lat), cells)
		}
		if !tc.ok && !strings.Contains(strings.Join(g.problems, "\n"), "differs from the local sequential run") {
			t.Fatalf("%s: problems %v", tc.name, g.problems)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has fewer than 10 beyond it, but was reportable")
	}
	v, ok := percentile(samples(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(samples(1), 0.5); !ok || v != 1 {
		t.Fatalf("median of one sample = %v, %v", v, ok)
	}
	r := tailRow("x", "ms", samples(50), 0.99)
	if r.value != 50 || !strings.HasPrefix(r.note, "max, n=50") {
		t.Fatalf("tail row over 50 samples = %+v, want the max labelled with its count", r)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// The program reports exactly the metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := slices.Clone(xs)
		sort.Strings(out)
		return out
	}
	var wl []string
	for n := range workloads {
		wl = append(wl, n)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", sorted(wl), names(b.Workloads)},
		{"end_to_end", sorted(e2eNames()), names(b.EndToEnd)},
		{"per_layer", sorted(layerNames()), names(b.PerLayer)},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: program reports %v, BENCHMARK.json declares %v", c.what, c.got, c.want)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/api/v1/jobs", "submit"},
		{"GET", "/api/v1/jobs", "other"},
		{"GET", "/api/v1/jobs/000001", "other"},
		{"GET", "/api/v1/jobs/000001/events", "events"},
		{"GET", "/api/v1/jobs/000001/report", "report"},
		{"GET", "/api/v1/jobs/000001/spec", "spec"},
		{"POST", "/api/v1/workers", "other"},
		{"POST", "/api/v1/workers/w1/heartbeat", "heartbeat"},
		{"POST", "/api/v1/workers/w1/lease:batch", "lease_batch"},
		{"GET", "/metrics", "other"},
	} {
		if got := routeOf(c.method, c.path); got != c.want {
			t.Errorf("routeOf(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

// Self time is a span's duration minus the union of its children,
// clipped to the span, so overlapping children are not charged twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "client.report", Start: 30, End: 50},
		{ID: 4, Parent: 2, Name: "server.submit", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "store.get", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// job: 100 - [10,50] - [90,100]; client spans: 30-10 + 20; server 10;
	// store 30.
	want := map[string]float64{"client": 50 + 20 + 20, "server": 10, "store": 30}
	for l, v := range want {
		if self[l] != v {
			t.Errorf("self[%s] = %v, want %v (all %v)", l, self[l], v, self)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/lru"
	"repro/internal/suite"
	"repro/internal/tenant"
)

// newQueuedServer builds a server whose pool never starts, so every
// submitted job stays queued and keeps its plan.
func newQueuedServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := New(Config{Workers: 1, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, NewClient(ts.URL)
}

// submittedPlan submits spec and returns its job's plan.
func submittedPlan(t *testing.T, s *Server, cli *Client, spec string) *suite.Plan {
	t.Helper()
	info, err := cli.Submit(context.Background(), strings.NewReader(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[info.ID]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.plan
}

// cachedPlans counts the hub's cached plans.
func cachedPlans(s *Server) int {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	return s.plans.Len()
}

// TestPlanCacheSharesOnePlanPerBody: the same bytes submitted twice
// share one plan; bytes that differ by one space get a plan of their
// own, with the same digest and cell keys.
func TestPlanCacheSharesOnePlanPerBody(t *testing.T) {
	s, cli := newQueuedServer(t)
	first := submittedPlan(t, s, cli, warmSpec)
	if again := submittedPlan(t, s, cli, warmSpec); again != first {
		t.Fatal("identical bytes were resolved into a second plan")
	}
	spaced := submittedPlan(t, s, cli, " "+warmSpec)
	if spaced == first {
		t.Fatal("bytes that differ by a space share a plan")
	}
	if spaced.Digest() != first.Digest() {
		t.Fatalf("digest %s, want %s", spaced.Digest(), first.Digest())
	}
	if got, want := strings.Join(spaced.Keys(), ","), strings.Join(first.Keys(), ","); got != want {
		t.Fatalf("cell keys %s, want %s", got, want)
	}
	if n := cachedPlans(s); n != 2 {
		t.Fatalf("%d plans cached, want 2", n)
	}
}

// TestPlanCacheRefusesWhatItRefusedBefore: a bad spec is answered 400
// with suite.ParsePlan's own text on every submit and never cached, and
// a body past the 8 MiB limit gets the answer a decoder reading the
// body directly gives: refused when the spec runs past the limit,
// accepted when only trailing bytes do. Neither is cached.
func TestPlanCacheRefusesWhatItRefusedBefore(t *testing.T) {
	s, cli := newQueuedServer(t)
	const bad = `{"name": "bad", "ops": ["bogus"]}`
	_, want := suite.ParsePlan(strings.NewReader(bad))
	for i := 0; i < 2; i++ {
		_, err := cli.Submit(context.Background(), strings.NewReader(bad), 0)
		var e *api.Error
		if !errors.As(err, &e) || e.StatusCode != http.StatusBadRequest || e.Message != want.Error() {
			t.Fatalf("submit %d of a bad spec: %v, want a 400 saying %q", i, err, want)
		}
	}

	// Each body is resolved as the hub resolves a submit, and as a
	// decoder reading it through the same limit resolves it.
	direct := func(body []byte) (*suite.Plan, error) {
		return suite.ParsePlan(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxSpecBytes))
	}
	viaHub := func(body []byte) (*suite.Plan, error) {
		return s.resolvePlan(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxSpecBytes))
	}
	huge := []byte(`{"name":"` + strings.Repeat("a", maxSpecBytes) + `"}`)
	_, wantErr := direct(huge)
	if _, err := viaHub(huge); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("a spec past the limit: %v, want %v", err, wantErr)
	}
	padded := append([]byte(warmSpec), bytes.Repeat([]byte(" "), maxSpecBytes)...)
	if _, err := direct(padded); err != nil {
		t.Fatalf("decoding a spec with trailing bytes past the limit: %v", err)
	}
	if p, err := viaHub(padded); err != nil || len(p.Cells()) != 6 {
		t.Fatalf("a spec with trailing bytes past the limit: %v", err)
	}
	if n := cachedPlans(s); n != 0 {
		t.Fatalf("%d plans cached, want none", n)
	}
}

// TestPlanCacheServesButSkipsAnOverBudgetPlan: a spec whose plan
// weighs more than the whole budget runs, and is not cached.
func TestPlanCacheServesButSkipsAnOverBudgetPlan(t *testing.T) {
	s, cli := newQueuedServer(t)
	// 140 sizes × 140 distributions of one workload and one tool.
	var points, pds []string
	for i := 1; i <= 140; i++ {
		points = append(points, fmt.Sprintf(`{"n":2,"s":%d}`, i))
		pds = append(pds, fmt.Sprintf(`{"name":"p%d","builtin":"pcore"}`, i))
	}
	spec := `{"name":"big","workloads":[{"name":"spin"}],"ops":["roundrobin"],"tools":[{"name":"adaptive"}],
"points":[` + strings.Join(points, ",") + `],"pds":[` + strings.Join(pds, ",") + `]}`
	p := submittedPlan(t, s, cli, spec)
	if w := p.Weight(len(spec)); len(p.Cells()) != 140*140 || w <= suite.PlanCacheBudget {
		t.Fatalf("%d cells weigh %d; the test wants %d cells over the budget %d", len(p.Cells()), w, 140*140, suite.PlanCacheBudget)
	}
	if again := submittedPlan(t, s, cli, spec); again == p {
		t.Fatal("an over-budget plan was cached")
	}
	if n := cachedPlans(s); n != 0 {
		t.Fatalf("%d plans cached, want none", n)
	}
}

// TestPlanCacheEvictsByWeightInLRUOrder: with room for two plans, a
// third evicts the least recently submitted one.
func TestPlanCacheEvictsByWeightInLRUOrder(t *testing.T) {
	s, cli := newQueuedServer(t)
	specs := make([]string, 3)
	weight := 0
	for i := range specs {
		specs[i] = strings.Replace(warmSpec, `"seed":7`, fmt.Sprintf(`"seed":%d`, 7+i), 1)
		p, err := suite.ParsePlan(strings.NewReader(specs[i]))
		if err != nil {
			t.Fatal(err)
		}
		weight = max(weight, p.Weight(len(specs[i])))
	}
	s.planMu.Lock()
	s.plans = lru.New[*suite.Plan](2 * weight)
	s.planMu.Unlock()
	cached := func(spec string) bool {
		sum := sha256.Sum256([]byte(spec))
		s.planMu.Lock()
		defer s.planMu.Unlock()
		return s.plans.Contains(string(sum[:]))
	}

	a := submittedPlan(t, s, cli, specs[0])
	submittedPlan(t, s, cli, specs[1])
	if submittedPlan(t, s, cli, specs[0]) != a { // a is now the most recent
		t.Fatal("a was resolved again while cached")
	}
	submittedPlan(t, s, cli, specs[2])
	if !cached(specs[0]) || cached(specs[1]) || !cached(specs[2]) {
		t.Fatalf("cached after the third plan: a %v, b %v, c %v; want a and c", cached(specs[0]), cached(specs[1]), cached(specs[2]))
	}
}

// TestPlanCacheConcurrentSubmits: eight concurrent submits of one spec
// all run to the same report, and the hub ends up holding one plan.
func TestPlanCacheConcurrentSubmits(t *testing.T) {
	s, cli := newTestServer(t, Config{Workers: 2, QueueCap: 16})
	ctx := context.Background()
	reports := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := cli.Submit(ctx, strings.NewReader(warmSpec), 0)
			if err == nil {
				info, err = cli.Watch(ctx, info.ID, nil)
			}
			if err == nil && info.Status != JobDone {
				err = fmt.Errorf("job %s ended %s: %s", info.ID, info.Status, info.Error)
			}
			if err == nil {
				reports[i], err = cli.ReportBytes(ctx, info.ID, true)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, r := range reports {
		if !bytes.Equal(r, reports[0]) {
			t.Fatalf("job %d's canonical report differs from job 0's", i)
		}
	}
	if n := cachedPlans(s); n != 1 {
		t.Fatalf("%d plans cached, want 1", n)
	}
}

// TestJobWatcherWakes: a watcher parked before start, between cells
// and before finish is woken by each, and a terminal job hands out no
// channel.
func TestJobWatcherWakes(t *testing.T) {
	plan, err := suite.ParsePlan(strings.NewReader(warmSpec))
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("j1", plan, 0, tenant.Anonymous)
	steps := []struct {
		name   string
		mutate func()
	}{
		{"start", func() { j.start(func() {}) }},
		{"first cell", func() { j.appendCell([]byte(`{"id":"a"}`)) }},
		{"second cell", func() { j.appendCell([]byte(`{"id":"b"}`)) }},
		{"finish", func() { j.finish(JobDone, nil, nil) }},
	}
	for _, st := range steps {
		_, upd, _, terminal := j.watch(0)
		if terminal || upd == nil {
			t.Fatalf("before %s: terminal %v, channel %v", st.name, terminal, upd)
		}
		woke := make(chan struct{})
		go func() {
			<-upd
			close(woke)
		}()
		st.mutate()
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatalf("a watcher parked before %s was not woken", st.name)
		}
	}
	if lines, upd, info, terminal := j.watch(1); !terminal || upd != nil || len(lines) != 1 || info.Status != JobDone {
		t.Fatalf("after finish: lines %q, channel %v, status %s, terminal %v", lines, upd, info.Status, terminal)
	}
}

package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/report"
)

// tinySpec is a fast one-cell spec for lifecycle tests.
const tinySpec = `{
	"name": "tiny",
	"trials": 1,
	"max_steps": 100000,
	"workloads": [{"name": "spin"}],
	"ops": ["roundrobin"],
	"points": [{"n": 2, "s": 4}],
	"tools": [{"name": "adaptive"}]
}`

func TestQueuePriorityAndFIFO(t *testing.T) {
	q := newJobQueue(8)
	mk := func(id string) *Job { return &Job{info: JobInfo{ID: id}} }
	for _, sub := range []struct {
		id   string
		prio int
	}{{"low", 0}, {"high", 5}, {"mid", 1}, {"high2", 5}} {
		if err := q.Push(mk(sub.id), sub.prio); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 4; i++ {
		j, _, ok := q.Pop(nil)
		if !ok {
			t.Fatal("queue drained early")
		}
		got = append(got, j.info.ID)
	}
	want := []string{"high", "high2", "mid", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestQueuePushPopAllocs: a Push and a Pop whose acquire accepts the
// heap root allocate only container/heap's boxing of the item, one each
// way, however deep the backlog; the backlog is ordered only when
// acquire refuses the root.
func TestQueuePushPopAllocs(t *testing.T) {
	accept := func(*Job) bool { return true }
	for _, backlog := range []int{0, 8, 64} {
		q := newJobQueue(backlog + 1)
		for i := 0; i < backlog; i++ {
			if err := q.Push(&Job{}, 0); err != nil {
				t.Fatal(err)
			}
		}
		j := &Job{}
		allocs := testing.AllocsPerRun(100, func() {
			if err := q.Push(j, 1); err != nil {
				t.Fatal(err)
			}
			if got, acquired, ok := q.Pop(accept); !ok || !acquired || got != j {
				t.Fatalf("Pop returned %p (acquired %v, ok %v), want the pushed job", got, acquired, ok)
			}
		})
		t.Logf("backlog %d: Push+Pop allocates %.0f objects", backlog, allocs)
		if allocs > 2 {
			t.Errorf("backlog %d: Push+Pop allocates %.0f objects, want at most 2", backlog, allocs)
		}
	}
}

func TestQueueBoundedAndClosed(t *testing.T) {
	q := newJobQueue(2)
	j := &Job{info: JobInfo{ID: "x"}}
	if err := q.Push(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(j, 0); err != ErrQueueFull {
		t.Fatalf("overflow push: want ErrQueueFull, got %v", err)
	}
	q.Close()
	if err := q.Push(j, 0); err != ErrQueueClosed {
		t.Fatalf("post-close push: want ErrQueueClosed, got %v", err)
	}
	// Items queued before Close still pop; then workers get ok=false.
	if _, _, ok := q.Pop(nil); !ok {
		t.Fatal("pre-close item lost")
	}
	if _, _, ok := q.Pop(nil); !ok {
		t.Fatal("pre-close item lost")
	}
	if _, _, ok := q.Pop(nil); ok {
		t.Fatal("closed empty queue returned a job")
	}
}

// newTestServer builds a started server + httptest frontend + client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, NewClient(ts.URL)
}

func TestSubmitWatchReportLifecycle(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx := context.Background()

	info, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != JobQueued && info.Status != JobRunning {
		t.Fatalf("fresh job status %q", info.Status)
	}
	if info.TotalCells != 1 || info.Suite != "tiny" || info.SpecDigest == "" {
		t.Fatalf("submit info incomplete: %+v", info)
	}

	var cells []report.Cell
	final, err := cli.Watch(ctx, info.ID, func(c report.Cell) { cells = append(cells, c) })
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone || final.DoneCells != 1 {
		t.Fatalf("final info: %+v", final)
	}
	if len(cells) != 1 || cells[0].Workload != "spin" {
		t.Fatalf("watch streamed %d cells: %+v", len(cells), cells)
	}

	// A second watcher on the finished job replays the full stream.
	cells = nil
	if _, err := cli.Watch(ctx, info.ID, func(c report.Cell) { cells = append(cells, c) }); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("replay watch got %d cells", len(cells))
	}

	rep, err := cli.Report(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Suite != "tiny" {
		t.Fatalf("report wrong: %+v", rep)
	}
	jobs, err := cli.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != info.ID {
		t.Fatalf("job list wrong: %+v", jobs)
	}
}

func TestSubmitValidationErrorIs400(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	_, err := cli.Submit(context.Background(), strings.NewReader(`{"name": "bad", "ops": ["bogus"]}`), 0)
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want greppable 400 validation error, got %v", err)
	}
}

func TestQueueFullIs503AndCancelQueued(t *testing.T) {
	// No Start(): jobs stay queued, so the bound and queued-cancel paths
	// are deterministic.
	s, err := New(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cli := NewClient(ts.URL)
	ctx := context.Background()

	a, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err == nil ||
		!strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("want 503 on full queue, got %v", err)
	}

	info, err := cli.Cancel(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != JobCancelled {
		t.Fatalf("queued cancel: status %q", info.Status)
	}
	// Cancelling a terminal job conflicts.
	if _, err := cli.Cancel(ctx, a.ID); err == nil || !strings.Contains(err.Error(), "HTTP 409") {
		t.Fatalf("double cancel: want 409, got %v", err)
	}
	// The watcher of a cancelled queued job gets an immediate done event.
	final, err := cli.Watch(ctx, a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobCancelled {
		t.Fatalf("watch of cancelled job: %+v", final)
	}
	// The cancelled job freed its queue slot: a new submission fits.
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err != nil {
		t.Fatalf("cancelled job still occupies queue capacity: %v", err)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"status": func() error { _, err := cli.Job(ctx, "jnope"); return err },
		"report": func() error { _, err := cli.Report(ctx, "jnope", false); return err },
		"cancel": func() error { _, err := cli.Cancel(ctx, "jnope"); return err },
		"watch":  func() error { _, err := cli.Watch(ctx, "jnope", nil); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
			t.Fatalf("%s of unknown job: want 404, got %v", name, err)
		}
	}
}

func TestCancelRunningJobKeepsPartialReport(t *testing.T) {
	// A many-cell sequential job so cancellation lands mid-sweep; enough
	// trials per cell that the cancel round trip wins the race against
	// the sweep even on a heavily loaded machine.
	spec := `{
		"name": "slow",
		"trials": 8,
		"max_steps": 400000,
		"workloads": [{"name": "quicksort", "gc_every": 4, "gc_leak_every": 2}],
		"ops": ["roundrobin", "cyclic", "random", "priority", "sequential"],
		"points": [{"n": 4, "s": 8}, {"n": 6, "s": 10}, {"n": 8, "s": 12}],
		"tools": [{"name": "adaptive"}],
		"keep_going": true
	}`
	_, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first cell to stream, then cancel.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		first := true
		_, _ = cli.Watch(watchCtx, info.ID, func(report.Cell) {
			if first {
				first = false
				if _, err := cli.Cancel(ctx, info.ID); err != nil {
					t.Errorf("cancel: %v", err)
				}
			}
		})
	}()

	final := waitTerminal(t, cli, info.ID, 60*time.Second)
	if final.Status != JobCancelled || !final.Interrupted {
		t.Fatalf("want cancelled+interrupted, got %+v", final)
	}
	rep, err := cli.Report(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("partial report not marked interrupted")
	}
	if len(rep.Cells) == 0 || len(rep.Cells) >= final.TotalCells {
		t.Fatalf("partial report has %d/%d cells", len(rep.Cells), final.TotalCells)
	}
}

// waitTerminal polls job status until it is terminal.
func waitTerminal(t *testing.T, cli *Client, id string, timeout time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		info, err := cli.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v", id, timeout)
	return JobInfo{}
}

func TestDrainRefusesNewWorkAndFinishesRunning(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cli := NewClient(ts.URL)
	ctx := context.Background()

	info, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain() // blocks until the worker pool exits

	final, err := cli.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The in-flight (or still-queued) job is resolved, never abandoned.
	if !final.Status.Terminal() {
		t.Fatalf("job left in %q after drain", final.Status)
	}
	if _, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0); err == nil ||
		!strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("submit after drain: want 503, got %v", err)
	}
}

func TestOldTerminalJobsArePruned(t *testing.T) {
	// An hour-long worker TTL keeps the idle worker live for the
	// whole test.
	s, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8, MaxJobs: 2,
		Dispatch: dispatch.Config{WorkerTTL: time.Hour}})
	ctx := context.Background()
	run := func(spec string) string {
		t.Helper()
		info, err := cli.Submit(ctx, strings.NewReader(spec), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Watch(ctx, info.ID, nil); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	first := run(tinySpec) // stores tinySpec's cell, so later runs are hits
	// A registered worker that never polls holds a cold cell's lease
	// pending, so the job older than every later one stays running.
	s.disp.Register("idle")
	held, err := cli.Submit(ctx, strings.NewReader(strings.Replace(tinySpec, `"trials": 1`, `"trials": 2`, 1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		info, err := cli.Job(ctx, held.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held job %s, want running", info.Status)
		}
	}
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, run(tinySpec))
	}
	jobs, err := cli.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("retention not bounded: %d jobs listed (MaxJobs=2)", len(jobs))
	}
	// The oldest terminal jobs were pruned entirely.
	for _, id := range []string{first, ids[0], ids[1]} {
		if _, err := cli.Job(ctx, id); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
			t.Fatalf("old job %s not pruned: %v", id, err)
		}
	}
	// The running job is kept, though it is the oldest.
	if info, err := cli.Job(ctx, held.ID); err != nil || info.Status != JobRunning {
		t.Fatalf("running job %s: %+v, %v; want kept and running", held.ID, info, err)
	}
	// The newest survives with its report, and its spec is still served,
	// but as a finished job it no longer holds its plan.
	if _, err := cli.Report(ctx, ids[2], false); err != nil {
		t.Fatalf("newest job's report lost: %v", err)
	}
	resp, err := http.Get(cli.BaseURL() + "/api/v1/jobs/" + ids[2] + "/spec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finished job's spec: HTTP %d", resp.StatusCode)
	}
	s.mu.Lock()
	newest, running := s.jobs[ids[2]], s.jobs[held.ID]
	s.mu.Unlock()
	newest.mu.Lock()
	dropped := newest.plan == nil
	newest.mu.Unlock()
	running.mu.Lock()
	kept := running.plan != nil
	running.mu.Unlock()
	if !dropped || !kept {
		t.Fatalf("finished job holds its plan: %v, running job holds its plan: %v; want false, true", !dropped, kept)
	}
	if _, err := cli.Cancel(ctx, held.ID); err != nil {
		t.Fatal(err)
	}
	if info, err := cli.Watch(ctx, held.ID, nil); err != nil || info.Status != JobCancelled {
		t.Fatalf("held job after cancel: %+v, %v", info, err)
	}
}

// The ordered emitter writes each cell as one whole line; the splitter
// takes exactly that and refuses any other write, so a torn or merged
// write fails the job instead of being stored as a corrupt line.
func TestJSONLSplitterTakesOnlyWholeLines(t *testing.T) {
	j := &Job{updated: make(chan struct{})}
	w := jsonlSplitter{j: j}
	if n, err := w.Write([]byte("{\"id\":\"a\"}\n")); err != nil || n != 11 {
		t.Fatalf("whole line: n=%d err=%v", n, err)
	}
	for _, bad := range []string{"", "{\"id\"", "\n\n", "{}\n{}\n", "{}\n{"} {
		if n, err := w.Write([]byte(bad)); err == nil || n != 0 {
			t.Errorf("Write(%q) = %d, %v; want 0 and an error", bad, n, err)
		}
	}
	if lines, _, _, _ := j.watch(0); len(lines) != 1 || string(lines[0]) != `{"id":"a"}` {
		t.Fatalf("lines = %q, want the one whole line", lines)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Watch(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(cli.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ptestd_jobs_submitted_total 1",
		"ptestd_jobs_completed_total 1",
		"ptestd_cells_executed_total 1",
		"ptestd_queue_depth 0",
		fmt.Sprintf("ptestd_store_puts_total %d", s.store.Stats().Puts),
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

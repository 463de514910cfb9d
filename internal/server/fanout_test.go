// Fan-out and lifecycle tests driven at the raw dispatch wire: a hand
// worker registers and calls lease:batch itself (no dispatch.Worker),
// so what one round trip grants is exactly what the hub offers.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/report"
	"repro/internal/suite"
)

// wirePost is one raw JSON round trip that must answer code.
func wirePost(t *testing.T, url string, in any, code int, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != code {
		t.Fatalf("POST %s: HTTP %d, want %d", url, resp.StatusCode, code)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding answer: %v", url, err)
	}
}

// handWorker speaks the dispatch wire by hand.
type handWorker struct {
	t    *testing.T
	base string
	id   string
}

func registerHandWorker(t *testing.T, base string) *handWorker {
	t.Helper()
	var reg dispatch.Registration
	wirePost(t, base+"/api/v1/workers", dispatch.RegisterRequest{Name: "hand"}, http.StatusCreated, &reg)
	return &handWorker{t: t, base: base, id: reg.WorkerID}
}

func (h *handWorker) leaseBatch(max int, comps []dispatch.CompleteRequest) dispatch.LeaseBatchResponse {
	h.t.Helper()
	var resp dispatch.LeaseBatchResponse
	wirePost(h.t, h.base+"/api/v1/workers/"+h.id+"/lease:batch",
		dispatch.LeaseBatchRequest{Max: max, Completions: comps}, http.StatusOK, &resp)
	return resp
}

// execute runs the granted cells in-process, as a worker would, and
// returns their completions.
func (h *handWorker) execute(spec *suite.Spec, grants []dispatch.Grant) []dispatch.CompleteRequest {
	h.t.Helper()
	var comps []dispatch.CompleteRequest
	for _, g := range grants {
		c, ok := spec.CellByID(g.CellID)
		if !ok {
			h.t.Fatalf("grant names unknown cell %q", g.CellID)
		}
		res, err := suite.ExecuteCell(spec, c)
		if err != nil {
			h.t.Fatal(err)
		}
		comps = append(comps, dispatch.CompleteRequest{LeaseID: g.LeaseID, JobID: g.JobID, CellID: g.CellID, Key: g.Key, Cell: res})
	}
	return comps
}

// waitCellsPending blocks until n cells wait at the hub for a grant.
func waitCellsPending(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.disp.Metrics().CellsPending != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d cells pending at the hub, want %d", s.disp.Metrics().CellsPending, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestE2EFanOutOneLeaseBatchGrantsWholePlan(t *testing.T) {
	spec, err := suite.Parse(strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.CellParallelism != 0 {
		t.Fatalf("spec sets cell_parallelism %d; the fan-out must not need it", spec.CellParallelism)
	}
	direct, err := suite.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Write(&want, report.Canonical(direct)); err != nil {
		t.Fatal(err)
	}

	s, cli := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	hw := registerHandWorker(t, cli.BaseURL())
	ctx := context.Background()
	info, err := cli.Submit(ctx, strings.NewReader(e2eSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(direct.Cells)
	waitCellsPending(t, s, n)

	resp := hw.leaseBatch(n+2, nil)
	var got, plan []string
	for _, g := range resp.Grants {
		got = append(got, g.CellID)
	}
	for _, c := range direct.Cells {
		plan = append(plan, c.ID)
	}
	if strings.Join(got, " ") != strings.Join(plan, " ") {
		t.Fatalf("one lease:batch granted %d cells %v, want the whole plan in order %v", len(got), got, plan)
	}
	acks := hw.leaseBatch(0, hw.execute(spec, resp.Grants)).Acks
	for i, a := range acks {
		if a != dispatch.CompleteAccepted {
			t.Fatalf("completion %d: %s, want %s", i, a, dispatch.CompleteAccepted)
		}
	}

	final, err := cli.Watch(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("fanned-out job finished %s: %+v", final.Status, final)
	}
	body, err := cli.ReportBytes(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), body) {
		t.Fatalf("fanned-out report differs from the local run:\nwant:\n%s\ngot:\n%s", want.Bytes(), body)
	}
	if m := s.disp.Metrics(); m.LocalCells != 0 {
		t.Errorf("LocalCells = %d, want every cell from the hand worker", m.LocalCells)
	}
}

// returnsWithin fails the test when f has not returned after d.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestServerLifecycle(t *testing.T) {
	t.Run("DoubleStartKeepsOnePool", func(t *testing.T) {
		s, err := New(Config{Workers: 1, QueueCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Drain)
		cli := NewClient(ts.URL)
		ctx := context.Background()
		spec, err := suite.Parse(strings.NewReader(tinySpec))
		if err != nil {
			t.Fatal(err)
		}

		// Job 1 takes the pool's only slot: the hand worker leases its
		// cell and holds it.
		hw := registerHandWorker(t, ts.URL)
		j1, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitCellsPending(t, s, 1)
		held := hw.leaseBatch(1, nil).Grants
		if len(held) != 1 {
			t.Fatalf("leased %d cells of job 1, want 1", len(held))
		}

		// A second pool would pop job 2 at once.
		j2, err := cli.Submit(ctx, strings.NewReader(tinySpec), 0)
		if err != nil {
			t.Fatal(err)
		}
		for until := time.Now().Add(250 * time.Millisecond); time.Now().Before(until); time.Sleep(5 * time.Millisecond) {
			info, err := cli.Job(ctx, j2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status != JobQueued {
				t.Fatalf("job 2 is %s while job 1 holds the only pool slot: a second Start grew the pool", info.Status)
			}
		}

		// Completing job 1 frees the slot for job 2.
		hw.leaseBatch(0, hw.execute(spec, held))
		for _, id := range []string{j1.ID, j2.ID} {
			if info := waitTerminal(t, cli, id, 30*time.Second); info.Status != JobDone {
				t.Fatalf("job %s finished %s", id, info.Status)
			}
		}
	})

	t.Run("DrainTwice", func(t *testing.T) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		returnsWithin(t, 10*time.Second, "first Drain", s.Drain)
		returnsWithin(t, 10*time.Second, "second Drain", s.Drain)
	})

	t.Run("DrainBeforeStart", func(t *testing.T) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		returnsWithin(t, 10*time.Second, "Drain before Start", s.Drain)
	})
}

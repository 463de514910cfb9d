package server

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/report"
)

// TestConcurrentWatchersReadOwnCells: two clients each submit and Watch
// their own spec's jobs 200 times at once, and each sees exactly its
// own report's cells, in plan order, every time. A Reader's pooled
// buffer, or a stream's pooled frame slice, that two streams shared
// would hand one client the other's cells.
func TestConcurrentWatchersReadOwnCells(t *testing.T) {
	_, cli := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	specs := []string{warmSpec, strings.Replace(warmSpec, `{"n":2,"s":4}`, `{"n":3,"s":4}`, 1)}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var want []report.Cell
			for i := 0; i <= 200; i++ {
				info, err := cli.Submit(ctx, strings.NewReader(spec), 0)
				if err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				var got []report.Cell
				if info, err = cli.Watch(ctx, info.ID, func(c report.Cell) { got = append(got, c) }); err != nil || info.Status != JobDone {
					t.Errorf("client %d, job %s: %s, %v", g, info.ID, info.Status, err)
					return
				}
				if want == nil { // the first job: its report is the reference
					rep, err := cli.Report(ctx, info.ID, false)
					if err != nil {
						t.Errorf("client %d: %v", g, err)
						return
					}
					want = rep.Cells
				}
				if len(got) != len(want) {
					t.Errorf("client %d, job %s: watched %d cells, want %d", g, info.ID, len(got), len(want))
					return
				}
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("client %d, job %s: cell %d is %+v, want %+v", g, info.ID, k, got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

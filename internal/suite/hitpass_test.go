package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/report"
	"repro/internal/store"
)

// hitPassSpec is the hub's warm job shape: 2 workloads × 3 tools = 6
// cells of a few milliseconds each, looked up or run six at a time.
const hitPassSpec = `{"name":"hits","seed":7,"trials":2,"keep_going":true,"max_steps":100000,"cell_parallelism":6,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4},{"name":"prodcons"}],
"ops":["roundrobin"],"points":[{"n":2,"s":4}],
"tools":[{"name":"adaptive"},{"name":"chess","max_schedules":2},{"name":"pct","depth":2}]}`

// recordingStore is a map store that records its lookups in the order
// they arrive and notices two that overlap. Each lookup sleeps for
// delay, so lookups made from several goroutines would overlap.
type recordingStore struct {
	delay time.Duration

	inflight atomic.Int32
	overlap  atomic.Bool

	mu    sync.Mutex
	cells map[string]report.Cell
	gets  []string
}

func (s *recordingStore) Get(key string) (report.Cell, bool) {
	if s.inflight.Add(1) > 1 {
		s.overlap.Store(true)
	}
	defer s.inflight.Add(-1)
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets = append(s.gets, key)
	c, ok := s.cells[key]
	return c, ok
}

func (s *recordingStore) Put(key string, c report.Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells[key] = c
	return nil
}

func (s *recordingStore) Stats() store.Stats       { return store.Stats{} }
func (s *recordingStore) Lifetime() store.Counters { return store.Counters{} }
func (s *recordingStore) Close() error             { return nil }

// hitPassPlan parses hitPassSpec at the given cell parallelism and runs
// it once without a store. It returns the plan, each cell's key, the
// run's cells and its canonical report bytes.
func hitPassPlan(t *testing.T, parallelism int) (*Plan, []string, []report.Cell, []byte) {
	t.Helper()
	p, err := ParsePlan(strings.NewReader(hitPassSpec))
	if err != nil {
		t.Fatal(err)
	}
	p = p.WithCellParallelism(parallelism)
	rep, err := p.Run(context.Background(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(p.Cells()))
	for i, c := range p.Cells() {
		keys[i] = p.Spec().CellKey(c)
	}
	return p, keys, rep.Cells, canonical(t, rep)
}

func canonical(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := report.Write(&b, report.Canonical(rep)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// storeOf holds the cells at the indices keep selects.
func storeOf(keys []string, cells []report.Cell, keep func(i int) bool) *recordingStore {
	st := &recordingStore{cells: map[string]report.Cell{}}
	for i, k := range keys {
		if keep(i) {
			st.cells[k] = cells[i]
		}
	}
	return st
}

// cellEvents groups a recorder's cell events by cell, in emit order.
func cellEvents(rec *eventlog.Recorder) map[string][]string {
	evs, _, _ := rec.Snapshot(0, eventlog.Filter{Type: "cell"})
	byCell := map[string][]string{}
	for _, e := range evs {
		byCell[e.Cell] = append(byCell[e.Cell], e.Type)
	}
	return byCell
}

// jsonlCells decodes a JSONL stream with every cell's wall time zeroed,
// as Canonical zeroes it.
func jsonlCells(t *testing.T, b []byte) []report.Cell {
	t.Helper()
	var cells []report.Cell
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if line == "" {
			continue
		}
		var c report.Cell
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		c.WallMS = 0
		cells = append(cells, c)
	}
	return cells
}

// TestAllHitRunLooksUpInOnePass runs a job whose every cell is stored
// at cell_parallelism 6: it looks the cells up one at a time, in plan
// order, and never executes one.
func TestAllHitRunLooksUpInOnePass(t *testing.T) {
	p, keys, cells, want := hitPassPlan(t, 6)
	st := storeOf(keys, cells, func(int) bool { return true })
	st.delay = 200 * time.Microsecond
	rep, err := p.Run(context.Background(), nil, Options{
		Store: st,
		Exec: func(_ context.Context, _ *Spec, c Cell) (report.Cell, error) {
			t.Errorf("Exec called for stored cell %s", c.ID)
			return report.Cell{}, errors.New("stored cell executed")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.overlap.Load() {
		t.Error("store lookups overlapped")
	}
	if strings.Join(st.gets, " ") != strings.Join(keys, " ") {
		t.Errorf("lookups arrived as\n%v\nwant plan order\n%v", st.gets, keys)
	}
	if rep.StoreHits != 6 || rep.StoreMisses != 0 {
		t.Errorf("%d hits, %d misses; want 6 and 0", rep.StoreHits, rep.StoreMisses)
	}
	if got := canonical(t, rep); !bytes.Equal(got, want) {
		t.Errorf("canonical report\n%s\nwant\n%s", got, want)
	}
}

// TestPartlyStoredRunMatchesStorelessRun runs with every other cell
// stored: the JSONL stream and the canonical report are those of a
// run without a store, and each cell's events run start → cached or
// start → executed.
func TestPartlyStoredRunMatchesStorelessRun(t *testing.T) {
	for _, par := range []int{1, 3} {
		p, keys, cells, want := hitPassPlan(t, par)
		st := storeOf(keys, cells, func(i int) bool { return i%2 == 0 })
		rec := eventlog.New(eventlog.Config{})
		var jsonl bytes.Buffer
		rep, err := p.Run(context.Background(), &jsonl, Options{
			Store: st, Events: eventlog.Scoped{R: rec, Job: "j"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(t, rep); !bytes.Equal(got, want) {
			t.Errorf("parallelism %d: canonical report\n%s\nwant\n%s", par, got, want)
		}
		canon := report.Canonical(&report.Report{Cells: cells}).Cells
		got := jsonlCells(t, jsonl.Bytes())
		if len(got) != len(canon) {
			t.Fatalf("parallelism %d: %d JSONL lines, want %d", par, len(got), len(canon))
		}
		for i := range got {
			if got[i] != canon[i] {
				t.Errorf("parallelism %d: JSONL line %d is %+v, want %+v", par, i, got[i], canon[i])
			}
		}
		if rep.StoreHits != 3 || rep.StoreMisses != 3 || len(st.cells) != 6 {
			t.Errorf("parallelism %d: %d hits, %d misses, %d stored; want 3, 3, 6",
				par, rep.StoreHits, rep.StoreMisses, len(st.cells))
		}
		evs := cellEvents(rec)
		for i, c := range p.Cells() {
			last := eventlog.TypeCellExecuted
			if i%2 == 0 {
				last = eventlog.TypeCellCached
			}
			if got, want := strings.Join(evs[c.ID], " "), eventlog.TypeCellStart+" "+last; got != want {
				t.Errorf("parallelism %d: cell %s events %q, want %q", par, c.ID, got, want)
			}
		}
	}
}

// TestCancelInFirstMissKeepsSequentialPrefix cancels the run from
// inside its first miss, with every other cell stored: the report, the
// JSONL stream and the events keep exactly the cells a sequential scan
// would have, the stored cell before the miss and the miss itself.
func TestCancelInFirstMissKeepsSequentialPrefix(t *testing.T) {
	p, keys, cells, _ := hitPassPlan(t, 1)
	st := storeOf(keys, cells, func(i int) bool { return i%2 == 0 })
	rec := eventlog.New(eventlog.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var execs int
	var jsonl bytes.Buffer
	rep, err := p.Run(ctx, &jsonl, Options{
		Store:  st,
		Events: eventlog.Scoped{R: rec, Job: "j"},
		Exec: func(_ context.Context, s *Spec, c Cell) (report.Cell, error) {
			execs++
			cancel()
			return ExecuteCell(s, c)
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if execs != 1 {
		t.Errorf("Exec ran %d times, want 1", execs)
	}
	plan := p.Cells()
	if !rep.Interrupted || len(rep.Cells) != 2 || rep.Cells[0].ID != plan[0].ID || rep.Cells[1].ID != plan[1].ID {
		t.Fatalf("report kept %d cells (interrupted %v), want the first 2 of the plan", len(rep.Cells), rep.Interrupted)
	}
	if rep.StoreHits != 1 || rep.StoreMisses != 1 || rep.Totals.Cells != 2 {
		t.Errorf("%d hits, %d misses, %d cells in totals; want 1, 1, 2", rep.StoreHits, rep.StoreMisses, rep.Totals.Cells)
	}
	lines := jsonlCells(t, jsonl.Bytes())
	if len(lines) != 2 || lines[0].ID != plan[0].ID || lines[1].ID != plan[1].ID {
		t.Fatalf("JSONL kept %d lines, want the first 2 cells of the plan", len(lines))
	}
	want := map[string]string{
		plan[0].ID: eventlog.TypeCellStart + " " + eventlog.TypeCellCached,
		plan[1].ID: eventlog.TypeCellStart + " " + eventlog.TypeCellExecuted,
	}
	evs := cellEvents(rec)
	if len(evs) != len(want) {
		t.Errorf("events for %d cells, want %d: %v", len(evs), len(want), evs)
	}
	for id, w := range want {
		if got := strings.Join(evs[id], " "); got != w {
			t.Errorf("cell %s events %q, want %q", id, got, w)
		}
	}
}

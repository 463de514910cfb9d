package detector

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bridge"
	"repro/internal/committee"
	"repro/internal/master"
	"repro/internal/pcore"
	"repro/internal/platform"
	"repro/internal/recording"
)

func spinFactory(logical uint32) committee.CreateSpec {
	return committee.CreateSpec{
		Name: "spin",
		Prio: 5,
		Entry: func(c *pcore.Ctx) {
			for {
				c.Progress()
				c.Yield()
			}
		},
	}
}

func newP(t *testing.T, cfg platform.Config) *platform.Platform {
	t.Helper()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func TestCleanRunReportsNothing(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	p.Master.Spawn("w", func(ctx *master.Ctx) {
		rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
		if err != nil || rep.Status != bridge.StatusOK {
			t.Errorf("TC failed: %v %v", rep, err)
		}
		rep, err = p.Client.Call(ctx, bridge.CodeTD, 0, 0xffffffff)
		if err != nil || rep.Status != bridge.StatusOK {
			t.Errorf("TD failed: %v %v", rep, err)
		}
	})
	d := New(p, nil, Options{})
	if r := d.Run(100000); r != nil {
		t.Fatalf("clean run reported %v", r)
	}
}

func TestDetectsCrash(t *testing.T) {
	p := newP(t, platform.Config{
		Factory: spinFactory,
		Kernel:  pcore.Config{GCEvery: 2, Faults: pcore.FaultPlan{GCLeakEvery: 1}},
	})
	p.Master.Spawn("churn", func(ctx *master.Ctx) {
		for i := 0; i < 100; i++ {
			if rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff); err != nil || rep.Status != bridge.StatusOK {
				return
			}
			if rep, err := p.Client.Call(ctx, bridge.CodeTD, 0, 0xffffffff); err != nil || rep.Status != bridge.StatusOK {
				return
			}
		}
	})
	d := New(p, nil, Options{CheckEvery: 8})
	r := d.Run(500000)
	if r == nil || r.Kind != BugCrash {
		t.Fatalf("report %v", r)
	}
	if r.Fault == nil || (r.Fault.Reason != pcore.FaultPoolExhausted && r.Fault.Reason != pcore.FaultGCCorruption) {
		t.Fatalf("fault %v", r.Fault)
	}
}

func TestDetectsDeadlockCycle(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	m1 := pcore.NewMutex("m1")
	m2 := pcore.NewMutex("m2")
	mkTask := func(first, second *pcore.Mutex) func(*pcore.Ctx) {
		return func(c *pcore.Ctx) {
			c.Lock(first)
			c.Yield()
			c.Lock(second)
			c.Unlock(second)
			c.Unlock(first)
		}
	}
	_, err := p.Slave.CreateTask("a", 5, mkTask(m1, m2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Slave.CreateTask("b", 5, mkTask(m2, m1))
	if err != nil {
		t.Fatal(err)
	}
	d := New(p, nil, Options{CheckEvery: 4})
	r := d.Run(10000)
	if r == nil || r.Kind != BugDeadlock {
		t.Fatalf("report %v", r)
	}
	if len(r.Cycle) != 2 {
		t.Fatalf("cycle %v", r.Cycle)
	}
	if !strings.Contains(r.Detail, "deadlock cycle") {
		t.Fatalf("detail %q", r.Detail)
	}
}

func TestDetectsHangBlockedForever(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	sem := pcore.NewSem("never", 0)
	if _, err := p.Slave.CreateTask("w", 5, func(c *pcore.Ctx) {
		c.SemWait(sem) // nobody will ever signal
	}); err != nil {
		t.Fatal(err)
	}
	d := New(p, nil, Options{CheckEvery: 4})
	r := d.Run(10000)
	if r == nil || r.Kind != BugHang {
		t.Fatalf("report %v", r)
	}
	if !strings.Contains(r.Detail, "blocked tasks") {
		t.Fatalf("detail %q", r.Detail)
	}
}

func TestDetectsHangInFlightCommand(t *testing.T) {
	// Crash the slave while a command is outstanding: if the crash check
	// were disabled the in-flight check would fire; here we assert the
	// crash is found first, then verify the hang path on a synthetic
	// quiescent state with in-flight RPC by suspending the only task the
	// command targets — instead, the simplest honest in-flight hang: the
	// committee's task factory panics the kernel during TC, the reply is
	// never posted.
	p := newP(t, platform.Config{
		Factory: func(logical uint32) committee.CreateSpec {
			return committee.CreateSpec{
				Name:  "boom",
				Prio:  5,
				Entry: func(c *pcore.Ctx) { panic("factory bug") },
			}
		},
	})
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		_, _ = p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
	})
	d := New(p, nil, Options{CheckEvery: 1})
	r := d.Run(100000)
	if r == nil {
		t.Fatal("no report")
	}
	if r.Kind != BugCrash {
		t.Fatalf("kind %v", r.Kind)
	}
}

func TestDetectsLivelock(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	// Two tasks spinning on each other's flags without ever progressing.
	var x, y int
	if _, err := p.Slave.CreateTask("s1", 5, func(c *pcore.Ctx) {
		x = 1
		for y == 1 || x == 1 { // never exits: x stays 1
			c.Yield()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Slave.CreateTask("s2", 5, func(c *pcore.Ctx) {
		y = 1
		for x == 1 {
			c.Yield()
		}
	}); err != nil {
		t.Fatal(err)
	}
	d := New(p, nil, Options{CheckEvery: 16, ProgressWindow: 5000})
	r := d.Run(1000000)
	if r == nil || r.Kind != BugLivelock {
		t.Fatalf("report %v", r)
	}
}

func TestDetectsStarvation(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	// High-priority hog progresses forever; low-priority task never runs.
	if _, err := p.Slave.CreateTask("hog", 2, func(c *pcore.Ctx) {
		for {
			c.Progress()
			c.Compute(100)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Slave.CreateTask("starved", 9, func(c *pcore.Ctx) {
		for {
			c.Progress()
			c.Yield()
		}
	}); err != nil {
		t.Fatal(err)
	}
	d := New(p, nil, Options{CheckEvery: 16, ProgressWindow: 5000})
	r := d.Run(1000000)
	if r == nil || r.Kind != BugStarvation {
		t.Fatalf("report %v", r)
	}
	if !strings.Contains(r.Detail, "starved") {
		t.Fatalf("detail %q", r.Detail)
	}
}

func TestDetectsMasterPanic(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	p.Master.Spawn("bad", func(ctx *master.Ctx) { panic("master bug") })
	d := New(p, nil, Options{CheckEvery: 1})
	r := d.Run(1000)
	if r == nil || r.Kind != BugMasterPanic {
		t.Fatalf("report %v", r)
	}
}

func TestReportCarriesJournal(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	j := recording.NewJournal(0)
	j.Append(1, 0, recording.Record{QM: "m1", QS: "ready", TP: []string{"TC"}, SN: 1})
	sem := pcore.NewSem("never", 0)
	if _, err := p.Slave.CreateTask("w", 5, func(c *pcore.Ctx) { c.SemWait(sem) }); err != nil {
		t.Fatal(err)
	}
	d := New(p, j, Options{CheckEvery: 1})
	r := d.Run(10000)
	if r == nil {
		t.Fatal("no report")
	}
	if !strings.Contains(r.Journal.String(), "(m1, ready, TC, 1, )") {
		t.Fatalf("journal %q", r.Journal.String())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// TestReportJournalIsFrozenAtDetection pins the lazy dump: the report's
// journal renders exactly what Dump printed when the bug was found, and
// keeps doing so while the journal grows past its bound and evicts.
func TestReportJournalIsFrozenAtDetection(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	const limit = 8
	j := recording.NewJournal(limit)
	tp := []string{"TC", "TS", "TR"}
	for i := 1; i <= limit+3; i++ {
		sn := (i-1)%len(tp) + 1
		j.Append(uint64(i), i%2, recording.Record{QM: "issue:" + tp[sn-1], QS: "ready",
			TP: tp, SN: sn, Sub: recording.Remaining(tp, sn)})
	}
	j.Append(99, 1, recording.Record{QM: "issue:TR", QS: "suspended", TP: tp, SN: 3})
	d := New(p, j, Options{CheckEvery: 1})
	r := d.Check()
	if r == nil || !strings.Contains(r.Detail, "lost wakeup") {
		t.Fatalf("report %v", r)
	}
	eager := j.Dump()
	if got := r.Journal.String(); got != eager {
		t.Fatalf("report journal at detection:\n%s\nwant:\n%s", got, eager)
	}
	for i := 0; i < 5*limit; i++ {
		j.Append(uint64(100+i), 0, recording.Record{QM: "issue:TD", QS: "terminated", TP: tp, SN: 1})
		if got := r.Journal.String(); got != eager {
			t.Fatalf("after %d more appends the report journal reads:\n%s\nwant:\n%s", i+1, got, eager)
		}
	}
	if j.Dump() == eager {
		t.Fatal("journal did not move on")
	}
	if got := fmt.Sprint(r.Journal); got != eager {
		t.Fatalf("fmt renders %q, want the dump", got)
	}
}

func TestRecordConsistencyLostWakeup(t *testing.T) {
	// A Definition 2 record showing task_resume completed while the task
	// stayed suspended is the lost-wakeup signature.
	p := newP(t, platform.Config{Factory: spinFactory})
	j := recording.NewJournal(0)
	j.Append(10, 0, recording.Record{QM: "issue:TR", QS: "suspended", TP: []string{"TR"}, SN: 1})
	d := New(p, j, Options{CheckEvery: 1})
	r := d.Check()
	if r == nil || r.Kind != BugHang {
		t.Fatalf("report %v", r)
	}
	if !strings.Contains(r.Detail, "lost wakeup") {
		t.Fatalf("detail %q", r.Detail)
	}
}

func TestRecordConsistencyCleanRecords(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	j := recording.NewJournal(0)
	j.Append(10, 0, recording.Record{QM: "issue:TR", QS: "ready", SN: 1})
	j.Append(11, 0, recording.Record{QM: "issue:TS", QS: "suspended", SN: 2})
	j.Append(12, 0, recording.Record{QM: "issue:TD", QS: "terminated", SN: 3})
	d := New(p, j, Options{CheckEvery: 1})
	if r := d.Check(); r != nil {
		t.Fatalf("clean records reported %v", r)
	}
	// Entries are checked once: appending a bad record later still fires.
	j.Append(13, 0, recording.Record{QM: "issue:TR", QS: "suspended", SN: 4})
	if r := d.Check(); r == nil {
		t.Fatal("incremental record missed")
	}
}

func TestFindCycle(t *testing.T) {
	type g = map[pcore.TaskID][]pcore.TaskID
	if c := FindCycle(g{}); c != nil {
		t.Fatalf("empty graph cycle %v", c)
	}
	if c := FindCycle(g{1: {2}, 2: {3}}); c != nil {
		t.Fatalf("acyclic graph cycle %v", c)
	}
	c := FindCycle(g{1: {2}, 2: {1}})
	if len(c) != 2 {
		t.Fatalf("cycle %v", c)
	}
	c = FindCycle(g{1: {2}, 2: {3}, 3: {1}})
	if len(c) != 3 {
		t.Fatalf("cycle %v", c)
	}
	// Self-loop (task waiting on itself cannot happen for mutexes, but the
	// algorithm should handle it).
	c = FindCycle(g{7: {7}})
	if len(c) == 0 {
		t.Fatal("self-loop missed")
	}
	// Deterministic: smallest-id cycle found first.
	c1 := FindCycle(g{5: {6}, 6: {5}, 1: {2}, 2: {1}})
	if c1[0] != 1 && c1[0] != 2 {
		t.Fatalf("nondeterministic start %v", c1)
	}
}

// TestCheckDoesNotAllocate pins the periodic check's cost while the
// wait-for graph has an edge: a task blocked on a mutex whose owner
// runs. The check walks the graph in the detector's own arrays, so it
// allocates nothing; building the graph as a map and searching it
// allocated at every check that found a blocked task.
func TestCheckDoesNotAllocate(t *testing.T) {
	p := newP(t, platform.Config{Factory: spinFactory})
	m := pcore.NewMutex("m")
	holder, err := p.Slave.CreateTask("holder", 5, func(c *pcore.Ctx) {
		c.Lock(m)
		for {
			c.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := p.Slave.CreateTask("waiter", 5, func(c *pcore.Ctx) { c.Lock(m) })
	if err != nil {
		t.Fatal(err)
	}
	j := recording.NewJournal(0)
	j.Append(1, 0, recording.Record{QM: "issue:TC", QS: "ready", TP: []string{"TC"}, SN: 1})
	d := New(p, j, Options{})
	for i := 0; i < 8; i++ {
		p.Step()
	}
	if info, _ := p.Slave.TaskInfo(waiter); info.State != pcore.StateBlocked || m.Owner() != holder {
		t.Fatalf("waiter %v, mutex owner %d; want blocked on task %d", info.State, m.Owner(), holder)
	}
	if r := d.Check(); r != nil {
		t.Fatalf("check reported %v", r)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Check() }); allocs != 0 {
		t.Fatalf("Check makes %.1f allocations with a task blocked on a running owner, want 0", allocs)
	}
}

package pcore

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// SettleGoroutines fails the test if runtime.NumGoroutine stays above
// want, the count read before the kernel was made. A task's coroutine
// outlives the task, parked for the kernel's next one, and ends inside
// Kernel.Shutdown, so after Shutdown the count is back at once. It may
// end below want: the goroutine the testing package ran an earlier test
// or subtest on can still be on its way out when want is read. A
// coroutine that outlives its kernel keeps the count above want.
func SettleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want at most %d: a coroutine outlived its kernel", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TaskEnding is one way a task can end, with what the kernel must show
// afterwards: the request it received last, the fault it recorded and
// the event trail. TestTaskEndings runs every case on a bare kernel
// stepped by Kernel.Step; TestTaskEndingsUnderRunLoop (handoff_test.go)
// runs the same cases under the platform's run loop, where the kernel
// completes each request on the stack of the task that posted it.
type TaskEnding struct {
	Name string
	Cfg  Config
	// Run sets the case up on k and drives it with drive.
	Run    func(t *testing.T, k *Kernel, drive Driver)
	req    reqKind
	fault  string
	events []string
}

// Driver takes up to steps kernel steps, fewer if the kernel goes idle,
// and then calls then (when non-nil) from whichever stack holds control
// after the last one: under the run loop, that of the task whose
// request completed last.
type Driver func(steps int, then func())

// StepDriver drives k through Kernel.Step, from the test's own stack.
func StepDriver(k *Kernel) Driver {
	return func(steps int, then func()) {
		k.RunUntilIdle(steps)
		if then != nil {
			then()
		}
	}
}

// TaskEndings lists every way a task can end.
func TaskEndings() []TaskEnding {
	yieldThen := func(end func(*Ctx)) func(*Ctx) {
		return func(c *Ctx) {
			c.Yield()
			end(c)
		}
	}
	spin := func(c *Ctx) {
		for {
			c.Yield()
		}
	}
	return []TaskEnding{
		{
			Name: "entry returns",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				mustCreate(t, k, "t", yieldThen(func(*Ctx) {}))
				drive(10, nil)
			},
			req:    reqExit,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 exit"},
		},
		{
			Name: "Ctx.Exit",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				mustCreate(t, k, "t", yieldThen(func(c *Ctx) {
					c.Exit()
					t.Error("code after Exit ran")
				}))
				drive(10, nil)
			},
			req:    reqExit,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 exit"},
		},
		{
			Name: "panicking body",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				mustCreate(t, k, "t", yieldThen(func(*Ctx) { panic("boom") }))
				drive(10, nil)
			},
			req:   reqTaskPanic,
			fault: FaultAssert,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 panic",
				`fault 1 kernel-assert: task "t" panicked: boom`},
		},
		{
			Name: "DeleteTask before the first dispatch",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				id := mustCreate(t, k, "t", spin)
				drive(0, func() {
					if err := k.DeleteTask(id); err != nil {
						t.Error(err)
					}
				})
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "exit 1 deleted", "service 0 TD"},
		},
		{
			// Under the run loop the delete runs on the blocked task's
			// own stack: its request was the last to complete.
			Name: "DeleteTask while blocked on a semaphore",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				s := NewSem("s", 0)
				id := mustCreate(t, k, "t", func(c *Ctx) {
					c.SemWait(s)
					t.Error("SemWait returned to a deleted task")
				})
				drive(10, func() {
					if err := k.DeleteTask(id); err != nil {
						t.Error(err)
					}
				})
				if s.Waiters() != 0 {
					t.Errorf("semaphore still has %d waiters", s.Waiters())
				}
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "dispatch 1", "block 1 sem s", "exit 1 deleted", "service 0 TD"},
		},
		{
			Name: "TerminateTask (TY) on a ready task",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				id := mustCreate(t, k, "t", spin)
				drive(1, func() {
					if err := k.TerminateTask(id); err != nil {
						t.Error(err)
					}
				})
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "dispatch 1", "exit 1 TY", "service 0 TY"},
		},
		{
			Name: "stack-overflow kill",
			Cfg:  Config{StackSize: 512},
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				mustCreate(t, k, "t", func(c *Ctx) {
					c.StackPush(600)
					t.Error("StackPush returned past the overflow")
				})
				drive(10, nil)
			},
			req:   reqKilledAck,
			fault: FaultStackOverflow,
			events: []string{"service 0 TC", "dispatch 1", "exit 1 stack overflow",
				`fault 1 stack-overflow: task "t" used 600 of 512 stack bytes`},
		},
		{
			Name: "recursive lock",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				m := NewMutex("m")
				mustCreate(t, k, "t", func(c *Ctx) {
					c.Lock(m)
					c.Lock(m)
					t.Error("Lock returned on a recursive lock")
				})
				drive(10, nil)
			},
			req:   reqKilledAck,
			fault: FaultAssert,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 recursive lock",
				`fault 1 kernel-assert: task "t" recursively locked "m"`},
		},
		{
			Name: "bad unlock",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				m := NewMutex("m")
				mustCreate(t, k, "t", func(c *Ctx) {
					c.Unlock(m)
					t.Error("Unlock of an unowned mutex returned")
				})
				drive(10, nil)
			},
			req:   reqKilledAck,
			fault: FaultAssert,
			events: []string{"service 0 TC", "dispatch 1", "exit 1 bad unlock",
				`fault 1 kernel-assert: task "t" unlocked "m" owned by 0`},
		},
		{
			Name: "Kernel.Shutdown",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				s := NewSem("s", 0)
				mustCreate(t, k, "blocked", func(c *Ctx) { c.SemWait(s) })
				mustCreate(t, k, "ready", spin)
				drive(1, k.Shutdown)
			},
			req:   reqKilledAck,
			fault: "shutdown",
			events: []string{"service 0 TC", "service 0 TC", "dispatch 1", "block 1 sem s",
				"exit 1 shutdown", "exit 2 shutdown"},
		},
		{
			// Under the run loop the shutdown runs on the stack of the
			// body that has just ended, before its coroutine parks.
			Name: "Kernel.Shutdown as the body ends",
			Run: func(t *testing.T, k *Kernel, drive Driver) {
				mustCreate(t, k, "t", yieldThen(func(*Ctx) {}))
				drive(2, k.Shutdown)
			},
			req:    reqExit,
			fault:  "shutdown",
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 exit"},
		},
	}
}

// RecordEvents registers a hook on k that renders every event as
// "kind task [service] [detail]" into the returned log.
func RecordEvents(k *Kernel) *[]string {
	var events []string
	k.OnEvent(func(e Event) {
		s := fmt.Sprintf("%s %d", e.Kind, e.Task)
		if e.Service != "" {
			s += " " + string(e.Service)
		}
		if e.Detail != "" {
			s += " " + e.Detail
		}
		events = append(events, s)
	})
	return &events
}

// Check compares what k shows after the ending with the case: the last
// request, the fault, the event trail, no live task left, and the
// coroutine of every task that ended parked for reuse (none once the
// kernel is shut down, at most that many once it has crashed).
func (tc TaskEnding) Check(t *testing.T, k *Kernel, events []string) {
	t.Helper()
	if k.curReq.kind != tc.req {
		t.Errorf("last request kind %d, want %d", k.curReq.kind, tc.req)
	}
	switch f := k.Fault(); {
	case tc.fault == "" && f != nil:
		t.Errorf("unexpected fault %v", f)
	case tc.fault != "" && (f == nil || f.Reason != tc.fault):
		t.Errorf("fault %v, want reason %q", f, tc.fault)
	}
	if !slices.Equal(events, tc.events) {
		t.Errorf("events:\n got %q\nwant %q", events, tc.events)
	}
	if live := k.LiveTasks(); len(live) != 0 {
		t.Errorf("live tasks %v after the ending", live)
	}
	ended := 0
	for _, e := range events {
		if strings.HasPrefix(e, "exit ") {
			ended++
		}
	}
	// A body that ends once the kernel has faulted returns instead of
	// parking, and Shutdown stops the parked ones. Under the run loop the
	// body whose final request crashes the kernel sees the fault on its
	// own stack; stepped by hand it parks before the kernel handles that
	// request.
	switch n, f := len(k.parked), k.Fault(); {
	case n > k.cfg.MaxTasks:
		t.Errorf("%d coroutines parked, want at most MaxTasks %d", n, k.cfg.MaxTasks)
	case f == nil && n != ended:
		t.Errorf("%d coroutines parked, want %d: one for each task that ended", n, ended)
	case f != nil && f.Reason == "shutdown" && n != 0:
		t.Errorf("%d coroutines parked after Shutdown, want 0", n)
	case n > ended:
		t.Errorf("%d coroutines parked after a crash, want at most %d: one for each task that ended", n, ended)
	}
}

// TestTaskEndings pins every way a task can end: the request the kernel
// receives last, the fault it records, the event trail, that the task's
// coroutine is parked for reuse afterwards, and that none is left once
// the kernel shuts down.
func TestTaskEndings(t *testing.T) {
	for _, tc := range TaskEndings() {
		t.Run(tc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(tc.Cfg)
			events := RecordEvents(k)
			tc.Run(t, k, StepDriver(k))
			tc.Check(t, k, *events)
			k.Shutdown()
			SettleGoroutines(t, before)
		})
	}
}

// TestTableIServicesLeaveNoGoroutines churns every Table I service and
// checks that the kernel keeps one coroutine per task it had live at
// once, and none after Shutdown.
func TestTableIServicesLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(Config{})
	spin := func(c *Ctx) {
		for {
			c.Yield()
		}
	}
	for i := 0; i < 50; i++ {
		a := mustCreate(t, k, "a", spin)
		b := mustCreate(t, k, "b", spin)
		k.Step()
		if err := k.SuspendTask(a); err != nil {
			t.Fatal(err)
		}
		if err := k.ChangePriority(a, 3); err != nil {
			t.Fatal(err)
		}
		if err := k.ResumeTask(a); err != nil {
			t.Fatal(err)
		}
		k.Step()
		if err := k.DeleteTask(a); err != nil {
			t.Fatal(err)
		}
		if err := k.TerminateTask(b); err != nil {
			t.Fatal(err)
		}
	}
	if k.Crashed() {
		t.Fatalf("kernel crashed: %v", k.Fault())
	}
	if n := len(k.parked); n != 2 {
		t.Errorf("%d coroutines parked after 100 tasks ended, two at a time; want 2", n)
	}
	k.Shutdown()
	SettleGoroutines(t, before)
}

// TestTaskCoroutinesAreReused checks that a kernel lends the coroutine
// of an ended task to the next task it creates: a reused coroutine runs
// the new task's entry with that task's own Ctx, and a task killed
// before its first dispatch never runs its entry.
func TestTaskCoroutinesAreReused(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New(Config{})
	spin := func(c *Ctx) {
		for {
			c.Yield()
		}
	}
	for i := 0; i < 50; i++ {
		mustCreate(t, k, "returns", func(c *Ctx) { c.Yield() })
		id := mustCreate(t, k, "spins", spin)
		k.RunUntilIdle(3)
		if err := k.DeleteTask(id); err != nil {
			t.Fatal(err)
		}
		if live := k.LiveTasks(); len(live) != 0 {
			t.Fatalf("round %d: live tasks %v", i, live)
		}
	}
	if n := len(k.parked); n != 2 {
		t.Fatalf("50 rounds of two tasks made %d coroutines, want 2", n)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("NumGoroutine = %d after 50 rounds, want at most %d", n, before+2)
	}

	next := k.parked[len(k.parked)-1]
	var gotID TaskID
	var gotName string
	var gotPrio Priority
	id, err := k.CreateTask("reused", 7, func(c *Ctx) { gotID, gotName, gotPrio = c.ID(), c.Name(), c.Priority() })
	if err != nil {
		t.Fatal(err)
	}
	if next.task != k.tasks[id] || len(k.parked) != 1 {
		t.Fatalf("task %d did not take the last parked coroutine", id)
	}
	k.RunUntilIdle(10)
	if gotID != id || gotName != "reused" || gotPrio != 7 {
		t.Errorf("entry ran as task %d %q at priority %d, want %d \"reused\" at 7", gotID, gotName, gotPrio, id)
	}

	ran := false
	id = mustCreate(t, k, "killed", func(*Ctx) { ran = true })
	if len(k.parked) != 1 {
		t.Fatalf("task %d did not take a parked coroutine", id)
	}
	if err := k.DeleteTask(id); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("a task deleted before its first dispatch ran its entry")
	}
	if n := len(k.parked); n != 2 || k.curReq.kind != reqKilledAck {
		t.Errorf("%d coroutines parked, last request %d; want 2 and the kill's acknowledgement", n, k.curReq.kind)
	}
	k.Shutdown()
	SettleGoroutines(t, before)
}

func mustCreate(t *testing.T, k *Kernel, name string, entry func(*Ctx)) TaskID {
	t.Helper()
	id, err := k.CreateTask(name, 5, entry)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

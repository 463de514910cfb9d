package pcore

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// settleGoroutines fails the test if runtime.NumGoroutine stays above
// want, the count read before the task was created. A task's coroutine
// ends inside the call that ends the task, so the count is back at once.
// It may end below want: the goroutine the testing package ran an
// earlier test or subtest on can still be on its way out when want is
// read. A body that outlives its task keeps the count above want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want at most %d: a task's body outlived the task", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTaskEndings pins every way a task can end: the request the kernel
// receives last, the fault it records, the event trail, and that the
// task's body is gone afterwards.
func TestTaskEndings(t *testing.T) {
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
	cases := []struct {
		name   string
		cfg    Config
		run    func(t *testing.T, k *Kernel)
		req    reqKind
		fault  string
		events []string
	}{
		{
			name: "entry returns",
			run: func(t *testing.T, k *Kernel) {
				mustCreate(t, k, "t", yieldThen(func(*Ctx) {}))
				k.RunUntilIdle(10)
			},
			req:    reqExit,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 exit"},
		},
		{
			name: "Ctx.Exit",
			run: func(t *testing.T, k *Kernel) {
				mustCreate(t, k, "t", yieldThen(func(c *Ctx) {
					c.Exit()
					t.Error("code after Exit ran")
				}))
				k.RunUntilIdle(10)
			},
			req:    reqExit,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 exit"},
		},
		{
			name: "panicking body",
			run: func(t *testing.T, k *Kernel) {
				mustCreate(t, k, "t", yieldThen(func(*Ctx) { panic("boom") }))
				k.RunUntilIdle(10)
			},
			req:   reqTaskPanic,
			fault: FaultAssert,
			events: []string{"service 0 TC", "dispatch 1", "dispatch 1", "exit 1 panic",
				`fault 1 kernel-assert: task "t" panicked: boom`},
		},
		{
			name: "DeleteTask before the first dispatch",
			run: func(t *testing.T, k *Kernel) {
				id := mustCreate(t, k, "t", spin)
				if err := k.DeleteTask(id); err != nil {
					t.Fatal(err)
				}
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "exit 1 deleted", "service 0 TD"},
		},
		{
			name: "DeleteTask while blocked on a semaphore",
			run: func(t *testing.T, k *Kernel) {
				s := NewSem("s", 0)
				id := mustCreate(t, k, "t", func(c *Ctx) {
					c.SemWait(s)
					t.Error("SemWait returned to a deleted task")
				})
				k.RunUntilIdle(10)
				if err := k.DeleteTask(id); err != nil {
					t.Fatal(err)
				}
				if s.Waiters() != 0 {
					t.Errorf("semaphore still has %d waiters", s.Waiters())
				}
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "dispatch 1", "block 1 sem s", "exit 1 deleted", "service 0 TD"},
		},
		{
			name: "TerminateTask (TY) on a ready task",
			run: func(t *testing.T, k *Kernel) {
				id := mustCreate(t, k, "t", spin)
				k.Step()
				if err := k.TerminateTask(id); err != nil {
					t.Fatal(err)
				}
			},
			req:    reqKilledAck,
			events: []string{"service 0 TC", "dispatch 1", "exit 1 TY", "service 0 TY"},
		},
		{
			name: "stack-overflow kill",
			cfg:  Config{StackSize: 512},
			run: func(t *testing.T, k *Kernel) {
				mustCreate(t, k, "t", func(c *Ctx) {
					c.StackPush(600)
					t.Error("StackPush returned past the overflow")
				})
				k.RunUntilIdle(10)
			},
			req:   reqKilledAck,
			fault: FaultStackOverflow,
			events: []string{"service 0 TC", "dispatch 1", "exit 1 stack overflow",
				`fault 1 stack-overflow: task "t" used 600 of 512 stack bytes`},
		},
		{
			name: "Kernel.Shutdown",
			run: func(t *testing.T, k *Kernel) {
				s := NewSem("s", 0)
				mustCreate(t, k, "blocked", func(c *Ctx) { c.SemWait(s) })
				mustCreate(t, k, "ready", spin)
				k.Step()
				k.Shutdown()
			},
			req:   reqKilledAck,
			fault: "shutdown",
			events: []string{"service 0 TC", "service 0 TC", "dispatch 1", "block 1 sem s",
				"exit 1 shutdown", "exit 2 shutdown"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(tc.cfg)
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
			tc.run(t, k)
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
			settleGoroutines(t, before)
		})
	}
}

// TestTableIServicesLeaveNoGoroutines churns every Table I service and
// checks that each created task's body is gone once the task is.
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
	settleGoroutines(t, before)
}

func mustCreate(t *testing.T, k *Kernel, name string, entry func(*Ctx)) TaskID {
	t.Helper()
	id, err := k.CreateTask(name, 5, entry)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

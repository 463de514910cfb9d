package master

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// SettleGoroutines fails the test if runtime.NumGoroutine stays above
// want, the count read before the thread was created. A thread's coroutine
// ends inside the call that ends the thread, so the count is back at once.
// It may end below want: the goroutine the testing package ran an
// earlier test or subtest on can still be on its way out when want is
// read. A body that outlives its thread keeps the count above want.
func SettleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want at most %d: a thread's body outlived the thread", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// ThreadEnding is one way a master thread can end, with what the OS
// must show afterwards: the request it received last, the contained
// panic and the event trail. TestThreadEndings runs every case on a bare
// OS stepped by OS.Step; TestThreadEndingsUnderRunLoop (handoff_test.go)
// runs the same cases under the platform's run loop.
type ThreadEnding struct {
	Name string
	// Run sets the case up on o and drives it with drive.
	Run    func(t *testing.T, o *OS, drive Driver)
	req    mrequest
	panic  string
	events []string
}

// Driver takes up to steps steps, fewer if the OS goes idle, and then
// calls then (when non-nil) from whichever stack holds control after
// the last one.
type Driver func(steps int, then func())

// StepDriver drives o through OS.Step, from the test's own stack.
func StepDriver(o *OS) Driver {
	return func(steps int, then func()) {
		o.RunUntilIdle(steps)
		if then != nil {
			then()
		}
	}
}

// ThreadEndings lists every way a master thread can end.
func ThreadEndings() []ThreadEnding {
	return []ThreadEnding{
		{
			Name: "entry returns",
			Run: func(t *testing.T, o *OS, drive Driver) {
				o.Spawn("t", func(c *Ctx) { c.Yield() })
				drive(10, nil)
			},
			req:    mrequest{kind: mreqExit, reason: "returned"},
			events: []string{"spawn", "exit:returned"},
		},
		{
			Name: "panicking body",
			Run: func(t *testing.T, o *OS, drive Driver) {
				o.Spawn("t", func(c *Ctx) {
					c.Yield()
					panic("boom")
				})
				drive(10, nil)
			},
			req:    mrequest{kind: mreqPanic, detail: "boom"},
			panic:  "boom",
			events: []string{"spawn", "panic"},
		},
		{
			// Under the run loop the shutdown runs on the stack of the
			// thread that parked last.
			Name: "OS.Shutdown with parked threads",
			Run: func(t *testing.T, o *OS, drive Driver) {
				for _, n := range []string{"a", "b"} {
					o.Spawn(n, func(c *Ctx) {
						c.Park("reply")
						t.Error("Park returned to a killed thread")
					})
				}
				drive(10, o.Shutdown)
			},
			req:    mrequest{kind: mreqExit, reason: "killed"},
			events: []string{"spawn", "spawn", "park:reply", "park:reply"},
		},
		{
			Name: "OS.Shutdown before the first dispatch",
			Run: func(t *testing.T, o *OS, drive Driver) {
				o.Spawn("t", func(c *Ctx) { t.Error("killed thread ran its body") })
				drive(0, o.Shutdown)
			},
			req:    mrequest{kind: mreqExit, reason: "killed"},
			events: []string{"spawn"},
		},
	}
}

// RecordEvents registers a hook on o that logs every event's What.
func RecordEvents(o *OS) *[]string {
	var events []string
	o.OnEvent(func(e ThreadEvent) { events = append(events, e.What) })
	return &events
}

// Check compares what o shows after the ending with the case: the last
// request, the contained panic, the event trail, and every thread done.
func (tc ThreadEnding) Check(t *testing.T, o *OS, events []string) {
	t.Helper()
	got := o.curReq
	if got.kind != tc.req.kind || got.reason != tc.req.reason || got.detail != tc.req.detail {
		t.Errorf("last request {%d %q %q}, want {%d %q %q}",
			got.kind, got.reason, got.detail, tc.req.kind, tc.req.reason, tc.req.detail)
	}
	switch p := o.LastPanic(); {
	case tc.panic == "" && p != nil:
		t.Errorf("unexpected panic %+v", p)
	case tc.panic != "" && (p == nil || p.Detail != tc.panic):
		t.Errorf("panic %+v, want detail %q", p, tc.panic)
	}
	if !slices.Equal(events, tc.events) {
		t.Errorf("events:\n got %q\nwant %q", events, tc.events)
	}
	for _, th := range o.Threads() {
		if th.State() != TDone {
			t.Errorf("thread %q is %s after the ending", th.Name(), th.State())
		}
	}
	if o.Ready() {
		t.Error("run queue not drained")
	}
}

// TestThreadEndings pins every way a master thread can end: the request
// the OS receives last, the contained panic it records, the event trail,
// and that the thread's body is gone afterwards.
func TestThreadEndings(t *testing.T) {
	for _, tc := range ThreadEndings() {
		t.Run(tc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			o := New()
			events := RecordEvents(o)
			tc.Run(t, o, StepDriver(o))
			tc.Check(t, o, *events)
			SettleGoroutines(t, before)
		})
	}
}

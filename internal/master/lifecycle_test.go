package master

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// settleGoroutines fails the test if runtime.NumGoroutine stays above
// want, the count read before the thread was created. A thread's coroutine
// ends inside the call that ends the thread, so the count is back at once.
// It may end below want: the goroutine the testing package ran an
// earlier test or subtest on can still be on its way out when want is
// read. A body that outlives its thread keeps the count above want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want at most %d: a thread's body outlived the thread", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestThreadEndings pins every way a master thread can end: the request
// the OS receives last, the contained panic it records, the event trail,
// and that the thread's body is gone afterwards.
func TestThreadEndings(t *testing.T) {
	cases := []struct {
		name   string
		run    func(t *testing.T, o *OS)
		req    mrequest
		panic  string
		events []string
	}{
		{
			name: "entry returns",
			run: func(t *testing.T, o *OS) {
				o.Spawn("t", func(c *Ctx) { c.Yield() })
				o.RunUntilIdle(10)
			},
			req:    mrequest{kind: mreqExit, reason: "returned"},
			events: []string{"spawn", "exit:returned"},
		},
		{
			name: "panicking body",
			run: func(t *testing.T, o *OS) {
				o.Spawn("t", func(c *Ctx) {
					c.Yield()
					panic("boom")
				})
				o.RunUntilIdle(10)
			},
			req:    mrequest{kind: mreqPanic, detail: "boom"},
			panic:  "boom",
			events: []string{"spawn", "panic"},
		},
		{
			name: "OS.Shutdown with parked threads",
			run: func(t *testing.T, o *OS) {
				for _, n := range []string{"a", "b"} {
					o.Spawn(n, func(c *Ctx) {
						c.Park("reply")
						t.Error("Park returned to a killed thread")
					})
				}
				o.RunUntilIdle(10)
				o.Shutdown()
			},
			req:    mrequest{kind: mreqExit, reason: "killed"},
			events: []string{"spawn", "spawn", "park:reply", "park:reply"},
		},
		{
			name: "OS.Shutdown before the first dispatch",
			run: func(t *testing.T, o *OS) {
				o.Spawn("t", func(c *Ctx) { t.Error("killed thread ran its body") })
				o.Shutdown()
			},
			req:    mrequest{kind: mreqExit, reason: "killed"},
			events: []string{"spawn"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			o := New()
			var events []string
			o.OnEvent(func(e ThreadEvent) { events = append(events, e.What) })
			tc.run(t, o)
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
			settleGoroutines(t, before)
		})
	}
}

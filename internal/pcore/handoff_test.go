package pcore_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/bridge"
	"repro/internal/committee"
	"repro/internal/mailbox"
	"repro/internal/pcore"
	"repro/internal/platform"
)

// loopDriver drives the platform's kernel under its run loop: it stops
// after steps steps, or once the platform is quiescent, and calls then
// from the stack that holds control at that point.
func loopDriver(p *platform.Platform) pcore.Driver {
	return func(steps int, then func()) {
		if steps == 0 {
			if then != nil {
				then()
			}
			return
		}
		n := 0
		p.Run(steps, func(alive bool) bool {
			if n++; n < steps && alive {
				return false
			}
			if then != nil {
				then()
			}
			return true
		})
	}
}

func newPlatform(t *testing.T, cfg platform.Config) *platform.Platform {
	t.Helper()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

// TestTaskEndingsUnderRunLoop runs every TestTaskEndings case under the
// platform's run loop, where a task completes its own requests and the
// loop runs on its stack. A kill aimed at that task (its own stack
// overflow, recursive lock or bad unlock; a delete, TY or shutdown from
// the loop's callback) cannot resume it, so the task is released at
// once and unwinds at the handoff. Each ending must leave exactly what
// it leaves on a bare kernel.
func TestTaskEndingsUnderRunLoop(t *testing.T) {
	for _, tc := range pcore.TaskEndings() {
		t.Run(tc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := newPlatform(t, platform.Config{Kernel: tc.Cfg})
			events := pcore.RecordEvents(p.Slave)
			tc.Run(t, p.Slave, loopDriver(p))
			tc.Check(t, p.Slave, *events)
			p.Shutdown()
			pcore.SettleGoroutines(t, before)
		})
	}
}

// ring posts a remote command straight into the command mailbox, as the
// bridge client does.
func ring(t *testing.T, p *platform.Platform, slot int, op bridge.ServiceCode, logical uint32) {
	err := p.Hub.WriteRequest(slot, bridge.Request{Token: uint32(100 + slot), Op: op, Arg0: logical, Arg1: 0xffffffff})
	if err == nil {
		err = p.SoC.Boxes.ArmToDspCmd.Post(mailbox.Compose(1, uint16(slot)))
	}
	if err != nil {
		t.Error(err)
	}
}

// TestCommitteeDeletesTaskRunningTheLoop has the committee delete a task
// while the run loop runs on that task's stack. The committee serves a
// command at the start of the step after the one that rang it, so the
// task rings its own TD and yields: the next step starts on its stack
// and the delete cannot resume it. The run must end the task exactly as
// a plain loop of Platform.Step does.
func TestCommitteeDeletesTaskRunningTheLoop(t *testing.T) {
	run := func(t *testing.T, loop bool) []string {
		before := runtime.NumGoroutine()
		var p *platform.Platform
		factory := func(logical uint32) committee.CreateSpec {
			return committee.CreateSpec{Name: "self-deleting", Prio: 5, Entry: func(c *pcore.Ctx) {
				for i := 0; ; i++ {
					if i == 2 {
						ring(t, p, 1, bridge.CodeTD, logical)
					}
					c.Yield()
					if i >= 2 {
						t.Error("the deleted task ran on")
					}
				}
			}}
		}
		p = newPlatform(t, platform.Config{Factory: factory})
		events := pcore.RecordEvents(p.Slave)
		ring(t, p, 0, bridge.CodeTC, 0)
		if loop {
			p.RunUntilQuiescent(10000)
		} else {
			for i := 0; i < 10000 && p.Step(); i++ {
			}
		}
		if live := p.Slave.LiveTasks(); len(live) != 0 {
			t.Errorf("live tasks %v after TD", live)
		}
		if served, errs := p.Committee.Stats(); served != 2 || errs != 0 {
			t.Errorf("committee served %d commands with %d errors, want TC and TD", served, errs)
		}
		if n := pcore.ParkedCoroutines(p.Slave); n != 1 {
			t.Errorf("%d coroutines parked after TD, want the deleted task's", n)
		}
		p.Shutdown()
		pcore.SettleGoroutines(t, before)
		return *events
	}
	want := []string{"service 0 TC", "dispatch 1", "dispatch 1", "dispatch 1", "exit 1 deleted", "service 0 TD"}
	if got := run(t, false); !slices.Equal(got, want) {
		t.Fatalf("plain loop events %q, want %q", got, want)
	}
	if got := run(t, true); !slices.Equal(got, want) {
		t.Fatalf("run loop events %q, want %q", got, want)
	}
}

// TestComputeLoopResumesOnce counts coroutine resumes: a task that
// issues 1,000 Ctx.Compute calls under the run loop is dispatched for
// every one, but each re-dispatch runs on its own stack, so it is
// resumed once, at its first dispatch. Its final request completes on
// its stack too. Stepping it from outside takes one resume per call.
func TestComputeLoopResumesOnce(t *testing.T) {
	p := newPlatform(t, platform.Config{})
	id, err := p.Slave.CreateTask("compute", 5, func(c *pcore.Ctx) {
		for i := 0; i < 1000; i++ {
			c.Compute(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	resumes := pcore.CountResumes(p.Slave, id)
	p.RunUntilQuiescent(10000)
	if _, live := p.Slave.TaskInfo(id); live {
		t.Fatal("task still live")
	}
	if *resumes != 1 {
		t.Fatalf("task resumed %d times for 1,000 Compute calls, want 1", *resumes)
	}
}

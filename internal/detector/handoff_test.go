package detector

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/bridge"
	"repro/internal/committee"
	"repro/internal/committer"
	"repro/internal/mailbox"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/platform"
	"repro/internal/recording"
	"repro/internal/stats"
)

// stackOf names the stack its caller runs on: "task" or "thread" when
// the run loop is running on a pcore task's or a master thread's
// coroutine, "caller" when it runs on the stack that called RunUntil.
func stackOf() string {
	pc := make([]uintptr, 256)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		switch {
		case strings.HasPrefix(f.Function, "repro/internal/pcore.(*Task)."):
			return "task"
		case strings.HasPrefix(f.Function, "repro/internal/master.(*Thread)."):
			return "thread"
		}
		if !more {
			return "caller"
		}
	}
}

// ringTC posts a TC command for a logical task straight into the
// command mailbox, as the bridge client does, without a master thread.
func ringTC(t *testing.T, p *platform.Platform, slot int, logical uint32) {
	err := p.Hub.WriteRequest(slot, bridge.Request{Token: uint32(100 + slot), Op: bridge.CodeTC, Arg0: logical, Arg1: 0xffffffff})
	if err == nil {
		err = p.SoC.Boxes.ArmToDspCmd.Post(mailbox.Compose(1, uint16(slot)))
	}
	if err != nil {
		t.Error(err)
	}
}

// TestHostPanicLeavesRunUntil pins the handoff's host-panic rule. Under
// the run loop the committee serves commands on whichever stack holds
// control, so a factory can run on a task's or a master thread's
// coroutine. A panic there is the host's, not the body's: RunUntil must
// panic with the very same value, whatever stack the loop was on, and
// not turn it into a task or master-thread fault (a nil report or a
// crash report would hide it).
func TestHostPanicLeavesRunUntil(t *testing.T) {
	spin := func(c *pcore.Ctx) {
		for {
			c.Yield()
		}
	}
	cases := []struct {
		name  string
		stack string // where the factory's second call must run
		// start issues the two TCs; ring is the first task's body when
		// it rings the second one itself.
		start func(t *testing.T, p *platform.Platform)
		ring  bool
	}{
		{
			// Both TCs wait in the mailbox before the run, and the first
			// step serves them on the caller's stack.
			name:  "caller's stack",
			stack: "caller",
			start: func(t *testing.T, p *platform.Platform) {
				ringTC(t, p, 0, 0)
				ringTC(t, p, 1, 1)
			},
		},
		{
			// The issuing thread parks on each call, and the next step,
			// which serves the call, starts on its stack.
			name:  "master thread's stack",
			stack: "thread",
			start: func(t *testing.T, p *platform.Platform) {
				p.Master.Spawn("issuer", func(c *master.Ctx) {
					for logical := uint32(0); logical < 2; logical++ {
						if _, err := p.Client.Call(c, bridge.CodeTC, logical, 0xffffffff); err != nil {
							t.Error(err)
						}
					}
				})
			},
		},
		{
			// The first task rings the second TC and yields; the next
			// step serves it on the task's stack.
			name:  "task's stack",
			stack: "task",
			start: func(t *testing.T, p *platform.Platform) { ringTC(t, p, 0, 0) },
			ring:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			boom := &struct{ msg string }{"factory failed"}
			var p *platform.Platform
			calls, where := 0, ""
			factory := func(logical uint32) committee.CreateSpec {
				if calls++; calls == 2 {
					where = stackOf()
					panic(boom)
				}
				body := spin
				if tc.ring {
					body = func(c *pcore.Ctx) {
						ringTC(t, p, 1, 1)
						spin(c)
					}
				}
				return committee.CreateSpec{Name: "t", Prio: 5, Entry: body}
			}
			p = newP(t, platform.Config{Factory: factory})
			tc.start(t, p)
			d := New(p, nil, Options{})
			got := func() (r any) {
				defer func() { r = recover() }()
				rep := d.RunUntil(100000, nil)
				t.Errorf("RunUntil returned %v instead of panicking", rep)
				return nil
			}()
			if got != boom {
				t.Fatalf("RunUntil panicked with %v, want the factory's value %v", got, boom)
			}
			if n := running.Load(); n != 0 {
				t.Errorf("%d run loops counted active after the panic, want 0", n)
			}
			if where != tc.stack {
				t.Errorf("factory's second call ran on the %s's stack, want the %s's", where, tc.stack)
			}
		})
	}
}

// TestHostPanicFromClockAndDetectorCallbacks covers the other host code
// the loop runs on a body's stack: a clock event and RunUntil's done
// predicate, both reached while a lone spinning task runs the loop.
func TestHostPanicFromClockAndDetectorCallbacks(t *testing.T) {
	for _, from := range []string{"clock", "done"} {
		t.Run(from, func(t *testing.T) {
			boom := &struct{ msg string }{from + " failed"}
			where := ""
			fail := func() {
				where = stackOf()
				panic(boom)
			}
			p := newP(t, platform.Config{})
			if _, err := p.Slave.CreateTask("spin", 5, func(c *pcore.Ctx) {
				for {
					c.Compute(5)
				}
			}); err != nil {
				t.Fatal(err)
			}
			var done func() bool
			if from == "clock" {
				p.SoC.Clock.Schedule(10000, fail)
			} else {
				checks := 0
				done = func() bool {
					if checks++; checks == 3 {
						fail()
					}
					return false
				}
			}
			d := New(p, nil, Options{ProgressWindow: 1 << 40})
			got := func() (r any) {
				defer func() { r = recover() }()
				d.RunUntil(100000, done)
				return nil
			}()
			if got != boom || where != "task" {
				t.Fatalf("RunUntil panicked with %v from the %s's stack, want %v from the task's", got, where, boom)
			}
		})
	}
}

// TestBodyPanicsStayContained is the other side of the rule: a panic
// raised by a task or thread body is still contained, as a crash and a
// master-thread panic.
func TestBodyPanicsStayContained(t *testing.T) {
	t.Run("task", func(t *testing.T) {
		p := newP(t, platform.Config{})
		if _, err := p.Slave.CreateTask("bad", 5, func(c *pcore.Ctx) {
			c.Yield()
			panic("task bug")
		}); err != nil {
			t.Fatal(err)
		}
		r := New(p, nil, Options{}).RunUntil(1000, nil)
		if r == nil || r.Kind != BugCrash || !strings.Contains(r.Detail, `task "bad" panicked: task bug`) {
			t.Fatalf("report %v, want a task-panicked crash", r)
		}
	})
	t.Run("thread", func(t *testing.T) {
		p := newP(t, platform.Config{})
		p.Master.Spawn("bad", func(c *master.Ctx) {
			c.Yield()
			panic("thread bug")
		})
		r := New(p, nil, Options{}).RunUntil(1000, nil)
		if r == nil || r.Kind != BugMasterPanic || !strings.Contains(r.Detail, "thread bug") {
			t.Fatalf("report %v, want a master-thread panic", r)
		}
	})
}

// runOutcome is everything one drive of a scenario shows.
type runOutcome struct {
	events              []string
	steps               uint64
	now, slave, mCycles uint64
	bug                 string
	snapshot            pcore.Snapshot
	journal             string
}

// equivalenceScenario is a full trial: PFA patterns merged and issued by
// the committer against a workload, with the detector watching.
type equivalenceScenario struct {
	name    string
	factory func() committee.Factory
	kernel  func() pcore.Config
	n, s    int
	op      pattern.Op
	seed    uint64
}

// drive runs the scenario once, with event hooks on both kernels, either
// through RunUntil or through a plain loop of Platform.Step that checks
// every CheckEvery steps exactly as RunUntil does.
func (sc equivalenceScenario) drive(t *testing.T, loop bool) runOutcome {
	t.Helper()
	machine, err := pfa.PCore()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.New(sc.seed)
	pats, err := machine.GenerateSet(rng.Split(), sc.n, sc.s, pfa.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]string, len(pats))
	for i, pat := range pats {
		sources[i] = pat.Symbols
	}
	merged, err := pattern.Merge(sources, sc.op, rng.Split(), pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newP(t, platform.Config{Kernel: sc.kernel(), Factory: sc.factory()})
	var out runOutcome
	p.Slave.OnEvent(func(e pcore.Event) {
		out.events = append(out.events, fmt.Sprintf("slave %d %d %s %s %s", e.At, e.Task, e.Kind, e.Service, e.Detail))
	})
	p.Master.OnEvent(func(e master.ThreadEvent) {
		out.events = append(out.events, fmt.Sprintf("master %d %d %s", e.At, e.Thread, e.What))
	})
	j := recording.NewJournal(0)
	cmt := committer.New(p.Client, merged, merged.PerTask(), nil, j, p.Now)
	p.Master.Spawn("committer", cmt.ThreadBody)
	d := New(p, j, Options{})
	settle := 0
	done := func() bool {
		if !cmt.Finished {
			return false
		}
		settle++
		return settle > 64
	}
	const maxSteps = 2_000_000
	var bug *Report
	if loop {
		bug = d.RunUntil(maxSteps, done)
	} else {
		for i := 0; ; i++ {
			if i == maxSteps {
				bug = d.Check()
				break
			}
			alive := p.Step()
			if (i+1)%d.opts.CheckEvery == 0 || !alive {
				if bug = d.Check(); bug != nil {
					break
				}
				if done() {
					bug = d.Check()
					break
				}
			}
			if !alive {
				break
			}
		}
	}
	out.steps = p.Steps()
	out.now, out.slave, out.mCycles = uint64(p.Now()), uint64(p.Slave.Cycles()), uint64(p.Master.Cycles())
	out.snapshot = p.Slave.Snapshot()
	if bug != nil {
		out.bug = bug.String()
		out.journal = bug.Journal.String()
	}
	return out
}

// TestRunUntilMatchesPlainStepLoop drives whole trials two ways: through
// RunUntil, where bodies complete their own requests and the loop runs
// on their stacks, and through a plain loop of Platform.Step with a
// Check every CheckEvery steps. The handoff changes which stack runs the
// loop, never what the loop does: the event logs of both kernels, the
// step count, the cycles and the bug report must be identical.
func TestRunUntilMatchesPlainStepLoop(t *testing.T) {
	philosophers := func() committee.Factory {
		f, _ := app.Philosophers(8, 200, false)
		return f
	}
	noisy := func() pcore.Config {
		rng := stats.New(7)
		return pcore.Config{Noise: func() bool { return rng.Float64() < 0.2 }}
	}
	plain := func() pcore.Config { return pcore.Config{} }
	cases := []equivalenceScenario{
		{"quicksort GC leak (crash)", func() committee.Factory { return app.QuicksortFactory(99) },
			func() pcore.Config {
				return pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}}
			}, 16, 24, pattern.OpRoundRobin, 3},
		{"spinners (clean, settles)", app.SpinFactory, plain, 4, 8, pattern.OpRoundRobin, 2},
		{"philosophers", philosophers, plain, 8, 16, pattern.OpCyclic, 5},
		{"philosophers under noise", philosophers, noisy, 8, 16, pattern.OpRandom, 6},
		{"producer-consumer", func() committee.Factory { return app.ProducerConsumer(10) }, plain, 8, 16, pattern.OpRandom, 9},
		{"priority inversion", func() committee.Factory { return app.PriorityInversion(200) },
			func() pcore.Config { return pcore.Config{Faults: pcore.FaultPlan{MisplacePriorityEvery: 3}} },
			16, 24, pattern.OpRoundRobin, 11},
	}
	bugs := 0
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.drive(t, false)
			got := sc.drive(t, true)
			if len(want.events) == 0 {
				t.Fatal("plain loop logged no events")
			}
			t.Logf("%d events, %d steps, %d cycles, bug %q", len(want.events), want.steps, want.now, want.bug)
			if !slices.Equal(got.events, want.events) {
				for i := range min(len(got.events), len(want.events)) {
					if got.events[i] != want.events[i] {
						t.Fatalf("event %d of %d/%d: run loop %q, plain loop %q", i, len(got.events), len(want.events), got.events[i], want.events[i])
					}
				}
				t.Fatalf("run loop logged %d events, plain loop %d", len(got.events), len(want.events))
			}
			got.events, want.events = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run loop\n %+v\nplain loop\n %+v", got, want)
			}
			if want.bug != "" {
				bugs++
			}
		})
	}
	if bugs == 0 {
		t.Error("no scenario found a bug; the reports went unchecked")
	}
}

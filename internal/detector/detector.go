// Package detector implements pTest's bug detector: it tracks the
// progress of test activities on the co-simulated platform, detects the
// potential system failures the paper targets — slave crashes, deadlock,
// hangs and starvation — and assembles the diagnostic dump that lets a
// user reproduce the bug (§II-B, "Bug detector").
package detector

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/pcore"
	"repro/internal/platform"
	"repro/internal/recording"
)

// BugKind classifies a detected failure.
type BugKind string

// The failure classes the detector distinguishes.
const (
	// BugCrash is a slave kernel fault (the paper's first case study).
	BugCrash BugKind = "crash"
	// BugDeadlock is a cycle in the slave's wait-for graph (the paper's
	// second case study).
	BugDeadlock BugKind = "deadlock"
	// BugHang is a quiescent platform with outstanding work: commands in
	// flight that can never complete, or tasks blocked on resources nobody
	// can release (orphaned locks, unsignalled semaphores, lost wakeups).
	BugHang BugKind = "hang"
	// BugLivelock is sustained scheduling activity with no application
	// progress ("processes ... stay in the same state for a period of
	// time", §II-A).
	BugLivelock BugKind = "livelock"
	// BugStarvation is one task making no progress over a long window
	// while others advance.
	BugStarvation BugKind = "starvation"
	// BugMasterPanic is a contained master-thread crash.
	BugMasterPanic BugKind = "master-panic"
)

// Report is the detector's diagnostic record for one discovered failure.
type Report struct {
	Kind     BugKind
	Detail   string
	At       clock.Cycles
	Fault    *pcore.KernelFault // set for BugCrash
	Cycle    []pcore.TaskID     // set for BugDeadlock: the wait cycle
	Snapshot pcore.Snapshot
	// Journal is the Definition 2 record journal as it stood at
	// detection, for reproduction: a frozen view that later appends
	// cannot change. It renders only when printed — fmt.Print(r.Journal)
	// or r.Journal.String() gives the journal's Dump from that moment —
	// so the many bugs nobody inspects cost no text. It is empty when
	// the detector ran without a journal.
	Journal recording.View
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("[%s] at t=%d: %s", r.Kind, r.At, r.Detail)
}

// Options tunes the detector.
type Options struct {
	// ProgressWindow is the span of virtual cycles without any
	// application progress after which an active platform is declared
	// livelocked, and a single non-progressing task starved
	// (default 200000).
	ProgressWindow clock.Cycles
	// CheckEvery runs the checks every n platform steps (default 64).
	CheckEvery int
}

func (o Options) withDefaults() Options {
	if o.ProgressWindow == 0 {
		o.ProgressWindow = 200000
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 64
	}
	return o
}

// Detector monitors one platform run.
type Detector struct {
	p       *platform.Platform
	journal *recording.Journal
	opts    Options

	lastTotalProgress uint64
	lastProgressAt    clock.Cycles
	perTask           []taskMark           // by task id
	untilCheck        int                  // steps left until the next periodic check
	recordsChecked    uint64               // journal entries already consistency-checked
	tasks             []pcore.TaskProgress // progressCheck's reused buffer
	owners, walked    []pcore.TaskID       // the deadlock check's arrays, by task id
}

// taskMark is the progress a task slot last showed and when it rose.
type taskMark struct {
	seen      bool
	progress  uint64
	stampedAt clock.Cycles
}

// New creates a detector for the platform; journal may be nil.
func New(p *platform.Platform, journal *recording.Journal, opts Options) *Detector {
	d := &Detector{p: p, journal: journal, opts: opts.withDefaults()}
	d.untilCheck = d.opts.CheckEvery
	// Every array indexed by task id spans the kernel's TCB table.
	d.owners = p.Slave.WaitOwners(nil)
	d.walked = make([]pcore.TaskID, len(d.owners))
	d.perTask = make([]taskMark, len(d.owners))
	return d
}

func (d *Detector) report(kind BugKind, detail string) *Report {
	r := &Report{
		Kind:     kind,
		Detail:   detail,
		At:       d.p.Now(),
		Fault:    d.p.Slave.Fault(),
		Snapshot: d.p.Slave.Snapshot(),
	}
	if d.journal != nil {
		r.Journal = d.journal.View()
	}
	return r
}

// Check runs every failure check against the current platform state and
// returns the first failure found, or nil.
func (d *Detector) Check() *Report {
	// 1. Slave crash.
	if f := d.p.Slave.Fault(); f != nil && f.Reason != "shutdown" {
		return d.report(BugCrash, f.Error())
	}
	// 2. Master thread panic.
	if p := d.p.Master.LastPanic(); p != nil {
		return d.report(BugMasterPanic,
			fmt.Sprintf("master thread %d panicked: %s", p.Thread, p.Detail))
	}
	// 3. Deadlock: cycle in the wait-for graph.
	d.owners = d.p.Slave.WaitOwners(d.owners)
	if cycle := waitCycle(d.owners, d.walked); len(cycle) > 0 {
		r := d.report(BugDeadlock, describeCycle(d.p.Slave, cycle))
		r.Cycle = cycle
		return r
	}
	// 3b. Orphaned locks: tasks blocked on mutexes whose owner was
	// deleted — the wait can never be satisfied.
	if orphans := d.p.Slave.OrphanedWaiters(); len(orphans) > 0 {
		return d.report(BugHang,
			fmt.Sprintf("task(s) %v blocked on mutexes owned by terminated tasks", orphans))
	}
	// 4. Record consistency: the Definition 2 state records expose
	// command/effect mismatches — a task_resume that completed while the
	// task stayed suspended is a lost wakeup in the command path. A
	// record inconsistency is conclusive whatever the platform state.
	if r := d.recordCheck(); r != nil {
		return r
	}
	// 5. Quiescent with outstanding work: nothing can ever move again.
	if d.p.Quiescent() {
		if n := d.p.Client.InFlight(); n > 0 {
			return d.report(BugHang,
				fmt.Sprintf("platform quiescent with %d remote command(s) in flight", n))
		}
		if blocked := blockedTasks(d.p.Slave); len(blocked) > 0 {
			return d.report(BugHang,
				fmt.Sprintf("platform quiescent with blocked tasks: %s", blocked))
		}
		return nil // legitimately done
	}
	// 6. Progress-window checks: livelock and starvation.
	return d.progressCheck()
}

// recordCheck scans journal entries appended since the last check for
// state records that contradict their command's semantics.
func (d *Detector) recordCheck() *Report {
	if d.journal == nil {
		return nil
	}
	for e := range d.journal.View().Since(d.recordsChecked) {
		d.recordsChecked = e.Seq
		rec := e.Record
		if rec.QM == "issue:TR" && rec.QS == pcore.StateSuspended.String() {
			return d.report(BugHang, fmt.Sprintf(
				"lost wakeup: record %s shows task_resume completed for logical task %d while the task stayed suspended",
				rec, e.Task))
		}
		if rec.QM == "issue:TS" && rec.QS == pcore.StateRunning.String() {
			return d.report(BugHang, fmt.Sprintf(
				"lost suspend: record %s shows task_suspend completed for logical task %d while the task kept running",
				rec, e.Task))
		}
	}
	return nil
}

// progressCheck watches application progress marks over virtual time.
func (d *Detector) progressCheck() *Report {
	now := d.p.Now()
	d.tasks = d.p.Slave.AppendProgress(d.tasks[:0])
	var total uint64
	for _, ts := range d.tasks {
		total += ts.Progress
		// A slot keeps its mark across task incarnations: a new task
		// counts as progressing once it passes the last one's count.
		if m := &d.perTask[ts.ID]; !m.seen || ts.Progress > m.progress {
			*m = taskMark{seen: true, progress: ts.Progress, stampedAt: now}
		}
	}
	if total > d.lastTotalProgress || d.lastProgressAt == 0 {
		d.lastTotalProgress = total
		d.lastProgressAt = now
	}
	window := d.opts.ProgressWindow
	// Livelock: nothing progressed across the window although the
	// platform keeps running.
	if len(d.tasks) > 0 && now-d.lastProgressAt > window {
		return d.report(BugLivelock,
			fmt.Sprintf("no task progressed for %d cycles while the system stayed active", now-d.lastProgressAt))
	}
	// Starvation: a runnable or blocked task is stuck across the window
	// while the system as a whole advanced after its last progress.
	for _, ts := range d.tasks {
		if ts.State != pcore.StateReady && ts.State != pcore.StateBlocked && ts.State != pcore.StateRunning {
			continue // suspended tasks are intentionally stopped
		}
		stamped := d.perTask[ts.ID].stampedAt
		if now-stamped > window && d.lastProgressAt > stamped {
			return d.report(BugStarvation,
				fmt.Sprintf("task %d (%s, %s) made no progress for %d cycles while others advanced",
					ts.ID, ts.Name, ts.State, now-stamped))
		}
	}
	return nil
}

// Run drives the platform until a failure is detected, the platform goes
// quiescent, or maxSteps elapse. It returns the failure report or nil on
// a clean finish.
func (d *Detector) Run(maxSteps int) *Report {
	return d.RunUntil(maxSteps, nil)
}

// running counts the RunUntil calls in progress in this process: the
// simulations holding a P each, since a run loop never blocks.
var running atomic.Int32

// yield is runtime.Gosched; tests replace it to count the yields.
var yield = runtime.Gosched

// RunUntil is Run with an additional stop predicate, evaluated at every
// check interval: when done() reports true the run ends with one final
// check. The campaign runner uses it to stop once the committer has
// issued the whole pattern and residual slave activity has settled,
// instead of stepping infinite workloads to the step budget.
//
// The checks run inside the platform's run loop, on whichever stack
// holds control at the time: the caller's, or that of the task or
// thread body whose request has just completed.
func (d *Detector) RunUntil(maxSteps int, done func() bool) *Report {
	running.Add(1)
	defer running.Add(-1)
	// Reading GOMAXPROCS takes the scheduler lock, so once per run.
	procs := int32(runtime.GOMAXPROCS(0))
	var found *Report
	stopped := d.p.Run(maxSteps, func(alive bool) bool {
		d.untilCheck--
		due := d.untilCheck == 0
		if due {
			d.untilCheck = d.opts.CheckEvery
		}
		if due || !alive {
			// The simulator switches tasks by coroutine, so this loop
			// never enters the Go scheduler on its own. When run loops
			// fill every P, the GC's fractional mark worker gets none:
			// assists take over, marking overshoots, and a parallel
			// sweep's peak RSS rose from 17.3–17.7 to 18.9–19.4 MiB
			// without this yield. While a P is idle, the GC's idle mark
			// worker runs there instead, and a yield only wakes that P
			// for nothing: a lone chess cell that yielded burned ~110%
			// CPU, 6.6% of its samples in futex.
			if running.Load() >= procs {
				yield()
			}
			if found = d.Check(); found != nil {
				return true
			}
			if done != nil && done() {
				found = d.Check()
				return true
			}
		}
		return !alive
	})
	if stopped {
		return found
	}
	// Step budget exhausted: one final check.
	return d.Check()
}

// waitCycle finds a cycle in the wait-for graph owner describes, where
// task id waits on task owner[id] and InvalidTask means it waits on
// nobody. It returns the cycle as a task sequence (first element
// repeated implicitly), or nil; walked is scratch space as long as
// owner. A blocked task waits on one mutex, so every task has at most
// one edge and the graph is a set of chains: the walk follows them from
// each task in ascending id order, and returns the same cycle, from the
// same first task, as a depth-first search that visits nodes in that
// order.
func waitCycle(owner, walked []pcore.TaskID) []pcore.TaskID {
	clear(walked)
	for first := range owner {
		start := pcore.TaskID(first)
		if owner[start] == pcore.InvalidTask || walked[start] != pcore.InvalidTask {
			continue
		}
		for id := start; ; {
			walked[id] = start
			next := owner[id]
			if next == pcore.InvalidTask || (walked[next] != pcore.InvalidTask && walked[next] != start) {
				break // the chain ends, or joins one already walked
			}
			if walked[next] == start {
				cycle := []pcore.TaskID{next}
				for t := owner[next]; t != next; t = owner[t] {
					cycle = append(cycle, t)
				}
				return cycle
			}
			id = next
		}
	}
	return nil
}

func describeCycle(k *pcore.Kernel, cycle []pcore.TaskID) string {
	parts := make([]string, 0, len(cycle)+1)
	for _, id := range cycle {
		name := "?"
		wait := ""
		if info, ok := k.TaskInfo(id); ok {
			name = info.Name
			wait = info.WaitingOn
		}
		parts = append(parts, fmt.Sprintf("task %d (%s) waits on %s", id, name, wait))
	}
	return "deadlock cycle: " + strings.Join(parts, " -> ")
}

func blockedTasks(k *pcore.Kernel) string {
	var parts []string
	for _, ts := range k.Snapshot().Tasks {
		if ts.State == pcore.StateBlocked {
			parts = append(parts, fmt.Sprintf("%d(%s on %s)", ts.ID, ts.Name, ts.WaitingOn))
		}
	}
	return strings.Join(parts, ", ")
}

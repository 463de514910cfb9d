// Package master simulates the master-side operating system — the Linux
// instance on the OMAP's ARM core that hosts the remote control threads
// and pTest's committer. It provides cooperative threads under a
// time-sharing round-robin scheduler, using the same deterministic
// coroutine handoff as the pcore slave kernel: each thread body is an
// iter.Pull coroutine that the OS resumes to dispatch it and that
// yields back at a system call (under a run loop, only when the next
// dispatch is another body), so exactly one body runs at a time and
// co-simulation stays reproducible.
package master

import (
	"fmt"
	"iter"

	"repro/internal/clock"
)

// ThreadID identifies a master thread; valid ids start at 1.
type ThreadID uint16

// InvalidThread is the zero ThreadID.
const InvalidThread ThreadID = 0

// ThreadState is a thread's scheduling state.
type ThreadState uint8

const (
	// TReady means runnable.
	TReady ThreadState = iota
	// TRunning means currently dispatched.
	TRunning
	// TParked means blocked until Unpark (e.g. waiting for an RPC reply).
	TParked
	// TDone means finished.
	TDone
)

// String names the thread state.
func (s ThreadState) String() string {
	switch s {
	case TReady:
		return "ready"
	case TRunning:
		return "running"
	case TParked:
		return "parked"
	case TDone:
		return "done"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// Virtual-cycle costs of master-side operations.
const (
	CostSpawn   clock.Cycles = 200 // fork a control thread
	CostYieldM  clock.Cycles = 30
	CostParkM   clock.Cycles = 40
	CostSwitchM clock.Cycles = 50 // Linux context switch is pricier than pCore's
)

type mreqKind uint8

const (
	mreqYield mreqKind = iota
	mreqCompute
	mreqPark
	mreqExit
	mreqPanic
)

type mrequest struct {
	kind   mreqKind
	th     *Thread
	cycles clock.Cycles
	reason string
	detail string
}

type masterKilled struct{}

// Thread is one simulated master thread. The OS calls resume to run the
// body until it posts its next request in OS.curReq (or ends); the body
// calls yield, from inside a system call, to hand that request back.
type Thread struct {
	id       ThreadID
	name     string
	state    ThreadState
	entry    func(*Ctx)
	os       *OS
	resume   func() (struct{}, bool)
	yield    func(struct{}) bool
	killed   bool
	parkedOn string
}

// ID returns the thread id.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// ParkedOn returns the park reason while parked ("" otherwise).
func (t *Thread) ParkedOn() string { return t.parkedOn }

// trampoline is the coroutine body hosting the thread's entry function.
// It posts the thread's final request (exit or panic) and returns, which
// ends the coroutine; a kill resumes it with killed set (or, on the
// stack running the run loop, unwinds it once the hook returns) and it
// unwinds through the recover in body. Under a run loop the final
// request completes on this stack, like every other request.
func (t *Thread) trampoline(yield func(struct{}) bool) {
	t.yield = yield
	o := t.os
	o.curReq = t.body()
	if o.handoff != nil && !t.killed {
		o.handoff()
	}
}

// body runs the entry function and returns the thread's final request.
func (t *Thread) body() (final mrequest) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if t.os.onStack == t {
			panic(r) // the run loop's own code failed: not a thread panic
		}
		if _, ok := r.(masterKilled); ok {
			final = mrequest{kind: mreqExit, th: t, reason: "killed"}
		} else {
			final = mrequest{kind: mreqPanic, th: t, detail: fmt.Sprint(r)}
		}
	}()
	if t.killed {
		panic(masterKilled{})
	}
	t.entry(&Ctx{th: t})
	return mrequest{kind: mreqExit, th: t, reason: "returned"}
}

// syscall posts the request to the OS and suspends the thread's
// coroutine until the OS resumes it. Under a run loop the thread first
// completes the request through the handoff hook and keeps running if
// the loop dispatches it again.
func (t *Thread) syscall(req mrequest) {
	o := t.os
	if t.killed {
		panic(masterKilled{})
	}
	o.curReq = req
	if o.handoff != nil {
		o.onStack = t
		o.handoff()
		o.onStack = nil
		if t.killed {
			panic(masterKilled{})
		}
		if o.current == t {
			return
		}
	}
	t.yield(struct{}{})
	if t.killed {
		panic(masterKilled{})
	}
}

// Ctx is the thread-side API.
type Ctx struct{ th *Thread }

// ID returns the calling thread's id.
func (c *Ctx) ID() ThreadID { return c.th.id }

// Name returns the calling thread's name.
func (c *Ctx) Name() string { return c.th.name }

// Yield gives up the processor until the scheduler comes around again.
func (c *Ctx) Yield() { c.th.syscall(mrequest{kind: mreqYield, th: c.th}) }

// Compute charges a burst of computation cycles.
func (c *Ctx) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	c.th.syscall(mrequest{kind: mreqCompute, th: c.th, cycles: clock.Cycles(cycles)})
}

// Park blocks the thread until OS.Unpark; reason appears in diagnostics.
func (c *Ctx) Park(reason string) {
	c.th.syscall(mrequest{kind: mreqPark, th: c.th, reason: reason})
}

// OS is the master operating system instance.
type OS struct {
	threads  []*Thread // index id-1
	runq     []ThreadID
	current  *Thread      // dispatched thread whose step is in progress
	stepCost clock.Cycles // switch cost charged at dispatch
	curReq   mrequest     // posted by the running thread before it yields
	handoff  func()       // run loop hook, see SetHandoff
	onStack  *Thread      // thread whose stack runs the hook
	cycles   clock.Cycles
	lastRun  ThreadID
	panicked *ThreadPanic
	onEvent  func(ThreadEvent)
	switches uint64
}

// ThreadPanic records a master thread panic (contained, like a Linux
// process crash: the OS survives, the thread is gone).
type ThreadPanic struct {
	Thread ThreadID
	Detail string
}

// ThreadEvent traces master-side scheduling for the recorder.
type ThreadEvent struct {
	At     clock.Cycles
	Thread ThreadID
	What   string
}

// New boots the master OS.
func New() *OS {
	return &OS{}
}

// OnEvent registers the trace hook.
func (o *OS) OnEvent(fn func(ThreadEvent)) { o.onEvent = fn }

func (o *OS) emit(th ThreadID, what string) {
	if o.onEvent != nil {
		o.onEvent(ThreadEvent{At: o.cycles, Thread: th, What: what})
	}
}

// emitOn emits prefix+reason, building the string only when a hook is
// registered.
func (o *OS) emitOn(th ThreadID, prefix, reason string) {
	if o.onEvent != nil {
		o.emit(th, prefix+reason)
	}
}

// Cycles returns master-side virtual time consumed.
func (o *OS) Cycles() clock.Cycles { return o.cycles }

// LastPanic returns the most recent contained thread panic, if any.
func (o *OS) LastPanic() *ThreadPanic { return o.panicked }

// Spawn creates a thread and makes it ready.
func (o *OS) Spawn(name string, entry func(*Ctx)) ThreadID {
	t := &Thread{
		id:    ThreadID(len(o.threads) + 1),
		name:  name,
		entry: entry,
		os:    o,
	}
	t.resume, _ = iter.Pull(t.trampoline)
	o.threads = append(o.threads, t)
	t.state = TReady
	o.runq = append(o.runq, t.id)
	o.cycles += CostSpawn
	o.emit(t.id, "spawn")
	return t.id
}

// Thread returns the thread with the given id, or nil.
func (o *OS) Thread(id ThreadID) *Thread {
	if id == InvalidThread || int(id) > len(o.threads) {
		return nil
	}
	return o.threads[id-1]
}

// Threads returns all threads in spawn order.
func (o *OS) Threads() []*Thread { return append([]*Thread{}, o.threads...) }

// Ready reports whether any thread is runnable.
func (o *OS) Ready() bool { return len(o.runq) > 0 }

// Unpark makes a parked thread runnable again; it is a no-op for threads
// in any other state (a wakeup for an already-running thread is benign).
func (o *OS) Unpark(id ThreadID) {
	t := o.Thread(id)
	if t == nil || t.state != TParked {
		return
	}
	t.state = TReady
	t.parkedOn = ""
	o.runq = append(o.runq, t.id)
	o.emit(id, "unpark")
}

// Step dispatches the next ready thread for one event (run to its next
// system call). It returns the cycle cost and whether a thread ran. Step
// is Dispatch, Resume and Complete in one call.
func (o *OS) Step() (clock.Cycles, bool) {
	if !o.Dispatch() {
		return 0, false
	}
	o.Resume()
	return o.Complete(), true
}

// Dispatch is the first half of a step: it pops the next ready thread,
// charges the switch and marks it running. It reports false when no
// thread is ready.
func (o *OS) Dispatch() bool {
	if len(o.runq) == 0 {
		return false
	}
	// Pop in place so the queue keeps its array.
	id := o.runq[0]
	n := copy(o.runq, o.runq[1:])
	o.runq = o.runq[:n]
	t := o.threads[id-1]
	var cost clock.Cycles
	if o.lastRun != id {
		cost += CostSwitchM
		o.switches++
	}
	o.lastRun = id
	t.state = TRunning
	o.current = t
	o.stepCost = cost
	return true
}

// Resume runs the dispatched thread's body until it posts its request
// (with a handoff hook: until the run loop dispatches another body).
func (o *OS) Resume() { o.current.resume() }

// Complete is the second half of a step: it processes the request the
// dispatched thread posted and returns the step's cycle cost.
func (o *OS) Complete() clock.Cycles {
	t := o.current
	req := o.curReq
	cost := o.stepCost
	switch req.kind {
	case mreqYield:
		cost += CostYieldM
		t.state = TReady
		o.runq = append(o.runq, t.id)
	case mreqCompute:
		cost += req.cycles
		t.state = TReady
		o.runq = append(o.runq, t.id)
	case mreqPark:
		cost += CostParkM
		t.state = TParked
		t.parkedOn = req.reason
		o.emitOn(t.id, "park:", req.reason)
	case mreqExit:
		t.state = TDone
		o.emitOn(t.id, "exit:", req.reason)
	case mreqPanic:
		t.state = TDone
		o.panicked = &ThreadPanic{Thread: t.id, Detail: req.detail}
		o.emit(t.id, "panic")
	}
	o.current = nil
	o.cycles += cost
	return cost
}

// SetHandoff installs the run loop's hook; nil removes it. It works as
// pcore's Kernel.SetHandoff: a thread that posts a request calls fn on
// its own stack, fn must Complete the step, and the thread keeps running
// only if fn dispatched it again.
func (o *OS) SetHandoff(fn func()) { o.handoff = fn }

// RunUntilIdle steps until no thread is ready or maxSteps is reached.
func (o *OS) RunUntilIdle(maxSteps int) int {
	n := 0
	for n < maxSteps {
		if _, ran := o.Step(); !ran {
			break
		}
		n++
	}
	return n
}

// Shutdown kills every live thread: each one's coroutine is resumed with
// killed set, unwinds through its trampoline and ends. The thread whose
// stack runs the handoff hook unwinds when the hook returns to it.
func (o *OS) Shutdown() {
	for _, t := range o.threads {
		if t.state == TDone {
			continue
		}
		if t.state == TRunning {
			// Cannot happen between steps; guard anyway.
			continue
		}
		t.killed = true
		if t != o.onStack {
			t.resume()
		}
		t.state = TDone
	}
	o.runq = nil
}

// Switches returns the context-switch count.
func (o *OS) Switches() uint64 { return o.switches }

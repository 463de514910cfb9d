package pcore

import (
	"fmt"

	"repro/internal/clock"
)

// killedSignal unwinds a task body that the kernel is terminating.
type killedSignal struct{}

// exitSignal unwinds a task body that called Ctx.Exit.
type exitSignal struct{}

// errRetry is the internal wake status telling a blocking wrapper to
// re-issue its request (used when a blocked task was suspended out of a
// wait queue and later resumed without being granted the resource).
var errRetry = fmt.Errorf("pcore: retry wait")

// reqKind enumerates task→kernel requests.
type reqKind uint8

const (
	reqYield reqKind = iota
	reqExit
	reqCompute
	reqProgress
	reqStackPush
	reqStackPop
	reqSemWait
	reqSemSignal
	reqMutexLock
	reqMutexUnlock
	reqQueueSend
	reqQueueRecv
	reqKilledAck
	reqTaskPanic
)

// request is the single in-flight task→kernel message. Exactly one
// request exists at a time because exactly one task body runs at a time.
type request struct {
	kind   reqKind
	task   *Task
	cycles clock.Cycles // reqCompute burst
	bytes  int          // reqStackPush/Pop frame size
	sem    *Sem
	mu     *Mutex
	q      *MsgQueue
	msg    uint32 // reqQueueSend payload
	detail string // reqTaskPanic message
}

// Task is a pCore task control block plus the coroutine that runs its
// body. The kernel calls resume to run the body until it posts its next
// request in Kernel.curReq (or ends); the body calls yield, from inside
// a kernel call, to hand that request back. Control passes by a direct
// coroutine switch, so no Go scheduler round trip sits on the path.
// Under a run loop (Kernel.SetHandoff) the body completes its own
// request and yields only when the next dispatch is another body. The
// coroutine is the kernel's, lent to the task from creation to its end
// (see coroutine).
type Task struct {
	id    TaskID
	name  string
	prio  Priority
	state State
	entry func(*Ctx)

	k      *Kernel
	ctx    Ctx                     // the entry function's handle on this task
	resume func() (struct{}, bool) // the resume of the coroutine lent to it
	yield  func(struct{}) bool

	killed bool

	tcbBlock   int
	stackBlock int
	stackUsed  int
	corrupted  bool // scribbled on by an unguarded stack overflow

	waitSem   *Sem
	waitMu    *Mutex
	waitSendQ *MsgQueue
	waitRecvQ *MsgQueue
	sendVal   uint32 // message offered while blocked sending
	recvVal   uint32 // message delivered by the kernel

	syscallErr error // kernel→task wake status

	progress  uint64
	syscalls  uint64
	created   clock.Cycles
	sliceUsed clock.Cycles
}

// ID returns the task id.
func (t *Task) ID() TaskID { return t.id }

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Priority returns the current priority.
func (t *Task) Priority() Priority { return t.prio }

// State returns the scheduling state.
func (t *Task) State() State { return t.state }

// Progress returns the application progress counter.
func (t *Task) Progress() uint64 { return t.progress }

// coroutine is an iter.Pull coroutine that runs task bodies for one
// kernel, one task after another. CreateTask lends a task a parked one,
// or makes one when none is parked, so a kernel makes only as many as
// it ever has tasks live at once instead of one per created task.
type coroutine struct {
	resume func() (struct{}, bool)
	stop   func()
	task   *Task // whose body runs at the next resume
}

// run is the coroutine's body. For each task it is lent to, it runs the
// task's body, which posts the task's final request, so every
// reqExit/reqKilledAck/reqTaskPanic the kernel receives comes from a
// task that needs no further resume. Nothing stops a body from outside:
// a kill resumes it with killed set, or, when the task's own stack runs
// the loop, makes it unwind once the hook returns; either way it unwinds
// through the recover in body. Under a run loop the final exit or panic
// request completes on this stack too, and the loop carries on here
// until it dispatches another body. The coroutine then parks on the
// kernel's free list and yields until CreateTask lends it to the next
// task; Shutdown stops it there. A body that ends once the kernel has
// faulted (Shutdown faults it first) returns instead, which ends its
// coroutine: a faulted kernel creates no task to lend it to.
func (c *coroutine) run(yield func(struct{}) bool) {
	for {
		t := c.task
		t.yield = yield
		k := t.k
		k.curReq = t.body()
		if k.handoff != nil && !t.killed {
			k.handoff()
		}
		c.task = nil
		if k.fault != nil {
			return
		}
		k.parked = append(k.parked, c)
		if !yield(struct{}{}) {
			return // stopped by Shutdown
		}
	}
}

// body runs the entry function and returns the task's final request.
func (t *Task) body() (final request) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if t.k.onStack == t {
			// The handoff hook was running on this stack, so the run
			// loop's own code failed (a committee factory, a clock
			// callback, the detector): not a task fault, so it leaves
			// the run as it would from any stack.
			panic(r)
		}
		switch r.(type) {
		case killedSignal:
			final = request{kind: reqKilledAck, task: t}
		case exitSignal:
			final = request{kind: reqExit, task: t}
		default:
			// Application code panicked inside the simulated task: surface
			// it as a kernel fault rather than crashing the host process.
			final = request{kind: reqTaskPanic, task: t, detail: fmt.Sprint(r)}
		}
	}()
	if t.killed {
		panic(killedSignal{})
	}
	t.ctx.t = t
	t.entry(&t.ctx)
	return request{kind: reqExit, task: t}
}

// post starts a system call: it returns the kernel's request slot,
// reset to a request of the given kind from this task, for the caller
// to fill in before calling syscall. A request is built once, in place.
func (t *Task) post(kind reqKind) *request {
	if t.killed {
		// A deferred kernel call while a kill unwinds the body.
		panic(killedSignal{})
	}
	t.k.curReq = request{kind: kind, task: t}
	return &t.k.curReq
}

// syscall hands the posted request to the kernel and suspends the
// task's coroutine until the kernel resumes it: at its next dispatch,
// or to unwind it when killed. Under a run loop the task first
// completes the request itself through the handoff hook, which runs the
// loop on this stack until the next dispatch; if that dispatch is this
// task again, the call returns without a coroutine switch.
func (t *Task) syscall() error {
	k := t.k
	if k.handoff != nil {
		k.onStack = t
		k.handoff()
		k.onStack = nil
		if t.killed {
			// Killed while its own stack ran the loop: the kernel has
			// released it; unwinding hands off to the next body.
			panic(killedSignal{})
		}
		if k.current == t {
			return t.syscallErr
		}
	}
	t.yield(struct{}{})
	if t.killed {
		panic(killedSignal{})
	}
	return t.syscallErr
}

// Ctx is the task-side kernel API handed to entry functions — the system
// calls a task running on pCore may perform on its own behalf. (The
// Table I task-management services operate on other tasks and are issued
// through the kernel/committee interface instead.)
type Ctx struct{ t *Task }

// ID returns the calling task's id.
func (c *Ctx) ID() TaskID { return c.t.id }

// Name returns the calling task's name.
func (c *Ctx) Name() string { return c.t.name }

// Priority returns the calling task's current priority.
func (c *Ctx) Priority() Priority { return c.t.prio }

// Yield gives up the processor to other ready tasks (the yield() of the
// paper's Figure 1) without changing state.
func (c *Ctx) Yield() {
	c.t.post(reqYield)
	_ = c.t.syscall()
}

// Compute charges a burst of virtual cycles of pure computation; it is a
// preemption point but keeps the task ready.
func (c *Ctx) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	c.t.post(reqCompute).cycles = clock.Cycles(cycles)
	_ = c.t.syscall()
}

// Progress marks application-level progress; the bug detector treats a
// task that keeps scheduling without marking progress as potentially
// livelocked/starved.
func (c *Ctx) Progress() {
	c.t.post(reqProgress)
	_ = c.t.syscall()
}

// Exit terminates the calling task voluntarily. It unwinds the task body
// and never returns.
func (c *Ctx) Exit() {
	panic(exitSignal{})
}

// StackPush models entering a function frame of the given size on the
// task's 512-byte stack; it returns an error only through kernel faulting
// (overflow crashes the slave, it does not return). Balance with StackPop.
func (c *Ctx) StackPush(bytes int) {
	c.t.post(reqStackPush).bytes = bytes
	_ = c.t.syscall()
}

// StackPop models leaving a function frame.
func (c *Ctx) StackPop(bytes int) {
	c.t.post(reqStackPop).bytes = bytes
	_ = c.t.syscall()
}

// SemWait blocks until the semaphore has a unit available and consumes it.
func (c *Ctx) SemWait(s *Sem) {
	for {
		c.t.post(reqSemWait).sem = s
		if err := c.t.syscall(); err != errRetry {
			return
		}
	}
}

// SemSignal releases one unit of the semaphore.
func (c *Ctx) SemSignal(s *Sem) {
	c.t.post(reqSemSignal).sem = s
	_ = c.t.syscall()
}

// Lock acquires the mutex, blocking while another task owns it.
func (c *Ctx) Lock(m *Mutex) {
	for {
		c.t.post(reqMutexLock).mu = m
		if err := c.t.syscall(); err != errRetry {
			return
		}
	}
}

// Unlock releases the mutex; unlocking a mutex the task does not own is
// a kernel assert (crashes the simulated slave, as on a tiny RTOS with
// assertions enabled).
func (c *Ctx) Unlock(m *Mutex) {
	c.t.post(reqMutexUnlock).mu = m
	_ = c.t.syscall()
}

// QueueSend enqueues a message, blocking while the queue is full.
func (c *Ctx) QueueSend(q *MsgQueue, msg uint32) {
	for {
		r := c.t.post(reqQueueSend)
		r.q, r.msg = q, msg
		if err := c.t.syscall(); err != errRetry {
			return
		}
	}
}

// QueueRecv dequeues a message, blocking while the queue is empty.
func (c *Ctx) QueueRecv(q *MsgQueue) uint32 {
	for {
		c.t.post(reqQueueRecv).q = q
		if err := c.t.syscall(); err != errRetry {
			return c.t.recvVal
		}
	}
}

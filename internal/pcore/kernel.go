package pcore

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
)

// Config sets kernel parameters; zero values take pCore defaults.
type Config struct {
	// MaxTasks is the TCB table size (default 16, pCore's limit).
	MaxTasks int
	// StackSize is each task's stack in bytes (default 512, the paper's
	// stress-test configuration).
	StackSize int
	// GCEvery runs a background garbage-collection pass every n completed
	// kernel services (default 8).
	GCEvery int
	// Quantum is the compute budget before an equal-priority round-robin
	// rotation (default 500 cycles).
	Quantum clock.Cycles
	// Faults seeds the kernel with simulated bugs.
	Faults FaultPlan
	// Noise, when non-nil, is consulted at every continuation point (a
	// task completing a system call that would keep the processor): a
	// true return forces a yield to the back of the priority queue. It
	// is the hook the ConTest-style noise-injection baseline uses to
	// randomly perturb the schedule at synchronization points.
	Noise func() bool
}

func (c Config) withDefaults() Config {
	if c.MaxTasks <= 0 {
		c.MaxTasks = 16
	}
	if c.StackSize <= 0 {
		c.StackSize = 512
	}
	if c.GCEvery <= 0 {
		c.GCEvery = 8
	}
	if c.Quantum == 0 {
		c.Quantum = 500
	}
	return c
}

// Kernel is the simulated pCore instance. Not safe for concurrent use;
// the co-simulation is single-threaded by design.
type Kernel struct {
	cfg  Config
	plan FaultPlan

	tasks []*Task // index 1..MaxTasks; nil = free slot
	// ready holds a FIFO queue per priority. Each queue is a window of
	// one array that New sizes by the TCB table, MaxTasks slots per
	// priority: a task waits in one queue at a time, so no queue grows
	// past its window.
	ready     [NumPriorities][]TaskID
	readyMask uint32

	tcbPool   *Pool
	stackPool *Pool

	cycles  clock.Cycles
	fault   *KernelFault
	lastRun TaskID

	current  *Task        // dispatched task whose step is in progress
	stepCost clock.Cycles // context-switch cost charged at dispatch
	curReq   request      // posted by the running task before it yields

	// handoff, set while a run loop drives the kernel, completes a step
	// on the stack of the task that posted the request (see SetHandoff);
	// onStack is that task while the hook runs. A panic that unwinds the
	// hook leaves onStack set, which tells the task's body that the
	// panic is the host's.
	handoff func()
	onStack *Task

	// parked holds the coroutines of ended tasks, each suspended until
	// CreateTask lends it to a new task.
	parked []*coroutine

	fstate   faultState
	svcCount int

	onEvent func(Event)

	svcCalls    [len(tableI)]uint64 // by Table I index
	svcCycles   [len(tableI)]clock.Cycles
	ctxSwitches uint64
}

// New boots a kernel with the given configuration. The kernel keeps the
// coroutines of ended tasks for reuse until Shutdown ends them, so call
// Shutdown once the kernel is no longer needed.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:       cfg,
		plan:      cfg.Faults,
		tasks:     make([]*Task, cfg.MaxTasks+1),
		tcbPool:   NewPool("tcb", cfg.MaxTasks),
		stackPool: NewPool("stack", cfg.MaxTasks),
	}
	slots := make([]TaskID, NumPriorities*cfg.MaxTasks)
	for p := range k.ready {
		k.ready[p] = slots[p*cfg.MaxTasks : p*cfg.MaxTasks : (p+1)*cfg.MaxTasks]
	}
	return k
}

// Cycles returns the kernel-local virtual time consumed so far.
func (k *Kernel) Cycles() clock.Cycles { return k.cycles }

// Fault returns the crash record, or nil while the kernel is healthy.
func (k *Kernel) Fault() *KernelFault { return k.fault }

// Crashed reports whether the kernel has crashed.
func (k *Kernel) Crashed() bool { return k.fault != nil }

// OnEvent registers the trace hook (last registration wins).
func (k *Kernel) OnEvent(fn func(Event)) { k.onEvent = fn }

func (k *Kernel) emit(e Event) {
	e.At = k.cycles
	if k.onEvent != nil {
		k.onEvent(e)
	}
}

// emitOn emits an event whose Detail is prefix+name, building the string
// only when a hook is registered: blocks and wakes happen at nearly
// every synchronization call, and most runs trace nothing.
func (k *Kernel) emitOn(task TaskID, kind EventKind, prefix, name string) {
	if k.onEvent != nil {
		k.emit(Event{Task: task, Kind: kind, Detail: prefix + name})
	}
}

// crash records a kernel fault; the kernel refuses all work afterwards.
func (k *Kernel) crash(reason, detail string, task TaskID) *KernelFault {
	if k.fault != nil {
		return k.fault
	}
	k.fault = &KernelFault{Reason: reason, Detail: detail, Task: task, At: k.cycles}
	k.emit(Event{Task: task, Kind: EvFault, Detail: reason + ": " + detail})
	return k.fault
}

// --- ready queue management -------------------------------------------

func (k *Kernel) enqueueBack(t *Task) {
	t.state = StateReady
	k.ready[t.prio] = append(k.ready[t.prio], t.id)
	k.readyMask |= 1 << uint(t.prio)
}

func (k *Kernel) enqueueFront(t *Task) {
	if k.cfg.Noise != nil && k.cfg.Noise() {
		// Injected noise: a forced yield at this continuation point.
		k.enqueueBack(t)
		return
	}
	t.state = StateReady
	// Insert in place, reusing the queue's array: this runs at every
	// continuation point.
	q := append(k.ready[t.prio], 0)
	copy(q[1:], q)
	q[0] = t.id
	k.ready[t.prio] = q
	k.readyMask |= 1 << uint(t.prio)
}

func (k *Kernel) dequeue(t *Task) {
	q := k.ready[t.prio]
	for i, id := range q {
		if id == t.id {
			k.ready[t.prio] = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(k.ready[t.prio]) == 0 {
		k.readyMask &^= 1 << uint(t.prio)
	}
}

// pickNext pops the highest-priority ready task (lowest numeric prio).
func (k *Kernel) pickNext() *Task {
	if k.readyMask == 0 {
		return nil
	}
	p := bits.TrailingZeros32(k.readyMask)
	// Shift in place so the queue keeps its front capacity; reslicing
	// q[1:] would lose a slot per pop.
	q := k.ready[p]
	id := q[0]
	copy(q, q[1:])
	k.ready[p] = q[:len(q)-1]
	if len(k.ready[p]) == 0 {
		k.readyMask &^= 1 << uint(p)
	}
	return k.tasks[id]
}

// ReadyCount returns the number of ready tasks.
func (k *Kernel) ReadyCount() int {
	n := 0
	for p := 0; p < NumPriorities; p++ {
		n += len(k.ready[p])
	}
	return n
}

// Idle reports whether no task is ready to run.
func (k *Kernel) Idle() bool { return k.readyMask == 0 }

// --- dispatch loop -----------------------------------------------------

// Step dispatches the highest-priority ready task for one kernel event
// (run until its next system call) and processes that call. It returns
// the virtual-cycle cost and whether any task ran. A crashed kernel
// never runs. Step is Dispatch, Resume and Complete in one call.
func (k *Kernel) Step() (clock.Cycles, bool) {
	if !k.Dispatch() {
		return 0, false
	}
	k.Resume()
	return k.Complete(), true
}

// Dispatch is the first half of a step: it takes the highest-priority
// ready task, charges the context switch and marks the task running.
// It reports false, changing nothing, when the kernel has crashed or no
// task is ready. The step ends with Complete once the task has posted
// its request.
func (k *Kernel) Dispatch() bool {
	if k.fault != nil {
		return false
	}
	t := k.pickNext()
	if t == nil {
		return false
	}
	var cost clock.Cycles
	if k.lastRun != t.id {
		cost += CostContextSw
		k.ctxSwitches++
		t.sliceUsed = 0
	}
	k.lastRun = t.id
	k.current = t
	k.stepCost = cost
	t.state = StateRunning
	k.emit(Event{Task: t.id, Kind: EvDispatch})
	return true
}

// Resume runs the dispatched task's body until it posts its request.
// Without a handoff hook the body yields straight back; with one it
// completes the step itself and returns control only when the run loop
// dispatches another body or stops.
func (k *Kernel) Resume() { k.current.resume() }

// Complete is the second half of a step: it processes the request the
// dispatched task posted and returns the step's virtual-cycle cost,
// context switch included.
func (k *Kernel) Complete() clock.Cycles {
	t := k.current
	t.syscalls++
	cost := k.stepCost + k.handle(&k.curReq)
	k.current = nil
	k.cycles += cost
	return cost
}

// SetHandoff installs the run loop's hook; nil removes it. While it is
// set, a task that posts a request calls fn on its own stack, and fn
// must Complete the step. fn may go on to dispatch further steps: if
// the next dispatched task is the caller, the caller carries on without
// a coroutine switch; otherwise it yields to whoever resumed it, which
// resumes the dispatched body. A kill aimed at the task whose stack runs
// fn releases the task at once and unwinds its stack when fn returns.
// Panics raised inside fn propagate out of Resume unchanged.
func (k *Kernel) SetHandoff(fn func()) { k.handoff = fn }

// RunUntilIdle steps the kernel until no task is ready, the kernel
// crashes, or maxSteps is exceeded; it returns the steps taken.
func (k *Kernel) RunUntilIdle(maxSteps int) int {
	steps := 0
	for steps < maxSteps {
		if _, ran := k.Step(); !ran {
			break
		}
		steps++
	}
	return steps
}

// handle processes one task request and returns its cycle cost. On
// return the requesting task is in a well-defined non-running state.
// req is the kernel's request slot, which a killed body overwrites with
// its final request as it unwinds: read what a case needs from req
// before it kills a task.
func (k *Kernel) handle(req *request) clock.Cycles {
	t := req.task
	t.syscallErr = nil
	switch req.kind {
	case reqYield:
		k.enqueueBack(t)
		return CostYield

	case reqCompute:
		t.sliceUsed += req.cycles
		if t.sliceUsed >= k.cfg.Quantum {
			t.sliceUsed = 0
			k.enqueueBack(t)
		} else {
			k.enqueueFront(t)
		}
		return req.cycles

	case reqProgress:
		t.progress++
		k.emit(Event{Task: t.id, Kind: EvProgress})
		k.enqueueFront(t)
		return 1

	case reqStackPush:
		t.stackUsed += req.bytes
		if t.stackUsed > k.cfg.StackSize {
			if !k.plan.StackGuardOff {
				used := t.stackUsed
				k.killParked(t, "stack overflow")
				k.crash(FaultStackOverflow,
					fmt.Sprintf("task %q used %d of %d stack bytes", t.name, used, k.cfg.StackSize), t.id)
				return 2
			}
			// Unguarded overflow scribbles over the adjacent TCB.
			if n := k.neighborOf(t); n != nil {
				n.corrupted = true
			}
		}
		k.enqueueFront(t)
		return 2

	case reqStackPop:
		t.stackUsed -= req.bytes
		if t.stackUsed < 0 {
			t.stackUsed = 0
		}
		k.enqueueFront(t)
		return 2

	case reqSemWait:
		s := req.sem
		if s.count > 0 {
			s.count--
			k.enqueueFront(t)
			return CostSemOp
		}
		t.state = StateBlocked
		t.waitSem = s
		s.waiters.push(t)
		k.emitOn(t.id, EvBlock, "sem ", s.name)
		return CostSemOp

	case reqSemSignal:
		s := req.sem
		if w := s.waiters.pop(); w != nil {
			// Direct handoff: the unit goes to w, whose pending SemWait
			// completes at its next dispatch (wake status nil).
			w.state = StateReady
			w.waitSem = nil
			k.enqueueBack(w)
			k.emitOn(w.id, EvWake, "sem ", s.name)
		} else {
			s.count++
		}
		k.enqueueFront(t)
		return CostSemOp

	case reqMutexLock:
		m := req.mu
		switch {
		case m.owner == nil:
			m.owner = t
			k.enqueueFront(t)
		case m.owner == t:
			k.killParked(t, "recursive lock")
			k.crash(FaultAssert, fmt.Sprintf("task %q recursively locked %q", t.name, m.name), t.id)
		default:
			t.state = StateBlocked
			t.waitMu = m
			m.waiters.push(t)
			k.emitOn(t.id, EvBlock, "mutex ", m.name)
		}
		return CostSemOp

	case reqMutexUnlock:
		m := req.mu
		if m.owner != t {
			owner := m.Owner()
			k.killParked(t, "bad unlock")
			k.crash(FaultAssert, fmt.Sprintf("task %q unlocked %q owned by %d", t.name, m.name, owner), t.id)
			return CostSemOp
		}
		if w := m.waiters.pop(); w != nil {
			m.owner = w // direct ownership transfer
			w.state = StateReady
			w.waitMu = nil
			k.enqueueBack(w)
			k.emitOn(w.id, EvWake, "mutex ", m.name)
		} else {
			m.owner = nil
		}
		k.enqueueFront(t)
		return CostSemOp

	case reqQueueSend:
		if k.handleSend(t, req.q, req.msg) {
			k.enqueueFront(t)
		}
		return CostSemOp

	case reqQueueRecv:
		if k.handleRecv(t, req.q) {
			k.enqueueFront(t)
		}
		return CostSemOp

	case reqExit:
		k.cleanupLocked(t, "exit")
		return CostTaskYield

	case reqTaskPanic:
		k.cleanupLocked(t, "panic")
		k.crash(FaultAssert, fmt.Sprintf("task %q panicked: %s", t.name, req.detail), t.id)
		return CostTaskYield
	}
	k.crash(FaultAssert, fmt.Sprintf("unknown request kind %d", req.kind), t.id)
	return 0
}

// neighborOf returns the live task in the adjacent TCB slot (wrapping),
// the victim of an unguarded stack overflow.
func (k *Kernel) neighborOf(t *Task) *Task {
	for off := 1; off <= k.cfg.MaxTasks; off++ {
		id := TaskID((int(t.id)+off-1)%k.cfg.MaxTasks + 1)
		if id != t.id && k.tasks[id] != nil {
			return k.tasks[id]
		}
	}
	return nil
}

// cleanupLocked terminates a task whose body has already ended (it just
// posted its final request): releases its pool blocks and clears its
// slot. The task is never resumed again; its coroutine parks for the
// next task.
func (k *Kernel) cleanupLocked(t *Task, why string) {
	k.releaseTask(t, why)
}

// releaseTask frees a task's resources and marks it terminated.
func (k *Kernel) releaseTask(t *Task, why string) {
	if t.state == StateTerminated {
		return
	}
	// Remove from any queue it might occupy.
	switch t.state {
	case StateReady, StateRunning:
		k.dequeue(t)
	case StateBlocked:
		if t.waitSem != nil {
			t.waitSem.waiters.remove(t)
			t.waitSem = nil
		}
		if t.waitMu != nil {
			t.waitMu.waiters.remove(t)
			t.waitMu = nil
		}
		if t.waitSendQ != nil {
			t.waitSendQ.sendQ.remove(t)
			t.waitSendQ = nil
		}
		if t.waitRecvQ != nil {
			t.waitRecvQ.recvQ.remove(t)
			t.waitRecvQ = nil
		}
	}
	t.state = StateTerminated
	if err := k.tcbPool.Release(t.tcbBlock); err != nil {
		k.crash(FaultDoubleFree, err.Error(), t.id)
	}
	if err := k.stackPool.Release(t.stackBlock); err != nil {
		k.crash(FaultDoubleFree, err.Error(), t.id)
	}
	k.tasks[t.id] = nil
	k.emit(Event{Task: t.id, Kind: EvExit, Detail: why})
}

// killParked terminates a task whose coroutine is suspended — not yet
// started, or inside a kernel call: resuming it with killed set makes
// the body unwind to the coroutine's loop, which posts reqKilledAck and
// parks the coroutine (on a faulted kernel, ends it), and the kernel
// reclaims the slot. The task whose stack runs the handoff hook cannot
// be resumed from its own stack: it is released at once, and it unwinds
// when the hook returns to it.
func (k *Kernel) killParked(t *Task, why string) {
	t.killed = true
	if t != k.onStack {
		t.resume() // posts reqKilledAck
	}
	k.releaseTask(t, why)
}

// --- garbage collection -------------------------------------------------

// maybeGC runs the periodic background collection after every GCEvery
// completed services.
func (k *Kernel) maybeGC() {
	k.svcCount++
	if k.svcCount%k.cfg.GCEvery == 0 {
		k.runGC("periodic")
	}
}

// runGC performs one collection pass over both pools, honouring the
// injected GC fault.
func (k *Kernel) runGC(why string) {
	r1, l1 := k.tcbPool.Collect(k.plan.GCLeakEvery)
	r2, l2 := k.stackPool.Collect(k.plan.GCLeakEvery)
	if k.onEvent != nil {
		k.emit(Event{Kind: EvGC, Detail: fmt.Sprintf("%s: reclaimed %d, leaked %d", why, r1+r2, l1+l2)})
	}
	if k.plan.GCCorruptAfterLeaks > 0 &&
		k.tcbPool.Leaked()+k.stackPool.Leaked() >= k.plan.GCCorruptAfterLeaks {
		k.crash(FaultGCCorruption,
			fmt.Sprintf("collector leaked %d tcb / %d stack blocks and corrupted the free list",
				k.tcbPool.Leaked(), k.stackPool.Leaked()), 0)
	}
}

// Pools exposes allocator occupancy for diagnostics and tests.
func (k *Kernel) Pools() (tcb, stack *Pool) { return k.tcbPool, k.stackPool }

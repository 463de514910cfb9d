package pcore

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/clock"
)

// This file implements the Table I task-management services as invoked
// remotely: "each task in pCore is controlled by the corresponding remote
// thread in Linux". The committee dispatches incoming remote commands to
// these methods.

// meter charges one call of the service with Table I index i.
func (k *Kernel) meter(i int, cost clock.Cycles) {
	k.svcCalls[i]++
	k.svcCycles[i] += cost
	k.cycles += cost
	k.emit(Event{Kind: EvService, Service: tableI[i]})
	k.maybeGC()
}

// serviceErr refuses service s on task id for the reason format, with
// arg as its operand (nil when it has none).
func (k *Kernel) serviceErr(s Service, id TaskID, format string, arg any) error {
	return &ServiceError{Service: s, Task: id, format: format, arg: arg}
}

func (k *Kernel) liveTask(s Service, id TaskID) (*Task, error) {
	if id == InvalidTask || int(id) > k.cfg.MaxTasks {
		return nil, k.serviceErr(s, id, "no such task", nil)
	}
	t := k.tasks[id]
	if t == nil {
		return nil, k.serviceErr(s, id, "no such task", nil)
	}
	if t.corrupted {
		// A stack overflow with the guard disabled scribbled over this
		// TCB; the next service touching it brings the kernel down.
		k.crash(FaultAssert, fmt.Sprintf("TCB of task %q corrupted by stack overflow", t.name), id)
		return nil, k.fault
	}
	return t, nil
}

// CreateTask implements task_create (TC): allocate a TCB and stack from
// the kernel pools, register the entry function and make the task ready.
// Pool pressure triggers an emergency collection; if the pool is still
// empty afterwards the kernel crashes — on a healthy kernel that cannot
// happen, and with the GC fault armed it is exactly the paper's first
// discovered bug.
func (k *Kernel) CreateTask(name string, prio Priority, entry func(*Ctx)) (TaskID, error) {
	if k.fault != nil {
		return InvalidTask, k.fault
	}
	if prio >= NumPriorities {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0, "priority %d out of range", prio)
	}
	if entry == nil {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0, "nil entry", nil)
	}
	slot := InvalidTask
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if k.tasks[id] == nil {
			slot = id
			break
		}
	}
	if slot == InvalidTask {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0,
			"all %d task slots in use", k.cfg.MaxTasks)
	}
	alloc := func(p *Pool, what string) (int, error) {
		if b, ok := p.Alloc(); ok {
			return b, nil
		}
		k.runGC("emergency")
		if k.fault != nil {
			return -1, k.fault
		}
		if b, ok := p.Alloc(); ok {
			return b, nil
		}
		return -1, k.crash(FaultPoolExhausted,
			fmt.Sprintf("%s pool empty after emergency GC (leaked=%d)", what, p.Leaked()), 0)
	}
	tcbBlock, err := alloc(k.tcbPool, "tcb")
	if err != nil {
		return InvalidTask, err
	}
	stackBlock, err := alloc(k.stackPool, "stack")
	if err != nil {
		return InvalidTask, err
	}
	t := &Task{
		id:         slot,
		name:       name,
		prio:       prio,
		entry:      entry,
		k:          k,
		tcbBlock:   tcbBlock,
		stackBlock: stackBlock,
		created:    k.cycles,
	}
	k.lendCoroutine(t)
	k.tasks[slot] = t
	k.enqueueBack(t)
	k.meter(idxTC, CostTaskCreate)
	return slot, nil
}

// lendCoroutine lends t a parked coroutine, or makes one when none is
// parked. The body first runs at t's first dispatch.
func (k *Kernel) lendCoroutine(t *Task) {
	var c *coroutine
	if n := len(k.parked); n > 0 {
		c = k.parked[n-1]
		k.parked = k.parked[:n-1]
	} else {
		c = new(coroutine)
		c.resume, c.stop = iter.Pull(c.run)
	}
	c.task = t
	t.resume = c.resume
}

// DeleteTask implements task_delete (TD): terminate the task in any
// state and release its resources for garbage collection. Deleting a
// task that owns a mutex leaks the lock — deliberately, as a tiny kernel
// does not track ownership for cleanup; the stress tester is there to
// expose exactly such hazards.
func (k *Kernel) DeleteTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskDelete, id)
	if err != nil {
		return err
	}
	k.killParked(t, "deleted")
	if k.fault != nil {
		return k.fault
	}
	k.meter(idxTD, CostTaskDelete)
	return nil
}

// SuspendTask implements task_suspend (TS). A blocked task is pulled out
// of its wait queue; on resume its wait is retried.
func (k *Kernel) SuspendTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskSuspend, id)
	if err != nil {
		return err
	}
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
		t.syscallErr = errRetry
	case StateSuspended:
		return k.serviceErr(SvcTaskSuspend, id, "already suspended", nil)
	default:
		return k.serviceErr(SvcTaskSuspend, id, "cannot suspend %s task", t.state)
	}
	t.state = StateSuspended
	k.emit(Event{Task: id, Kind: EvBlock, Detail: "suspended"})
	k.meter(idxTS, CostTaskSuspend)
	return nil
}

// ResumeTask implements task_resume (TR). Per the paper, "the task
// resuming operation can be performed only when the corresponding task is
// suspended"; resuming any other state is a service error. The
// DropResumeEvery fault makes every n-th resume a silent lost wakeup.
func (k *Kernel) ResumeTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskResume, id)
	if err != nil {
		return err
	}
	if t.state != StateSuspended {
		return k.serviceErr(SvcTaskResume, id, "task is %s, not suspended", t.state)
	}
	k.fstate.resumeCalls++
	if k.plan.DropResumeEvery > 0 && k.fstate.resumeCalls%k.plan.DropResumeEvery == 0 {
		// Lost wakeup: report success, change nothing.
		k.meter(idxTR, CostTaskResume)
		return nil
	}
	k.enqueueBack(t)
	k.emit(Event{Task: id, Kind: EvWake, Detail: "resumed"})
	k.meter(idxTR, CostTaskResume)
	return nil
}

// ChangePriority implements task_chanprio (TCH). The
// MisplacePriorityEvery fault applies the lowest priority instead of the
// requested one on every n-th call.
func (k *Kernel) ChangePriority(id TaskID, prio Priority) error {
	if k.fault != nil {
		return k.fault
	}
	if prio >= NumPriorities {
		return k.serviceErr(SvcTaskChanprio, id, "priority %d out of range", prio)
	}
	t, err := k.liveTask(SvcTaskChanprio, id)
	if err != nil {
		return err
	}
	k.fstate.chanprioCalls++
	applied := prio
	if k.plan.MisplacePriorityEvery > 0 && k.fstate.chanprioCalls%k.plan.MisplacePriorityEvery == 0 {
		applied = NumPriorities - 1
	}
	if t.state == StateReady {
		k.dequeue(t)
		t.prio = applied
		k.enqueueBack(t)
	} else {
		t.prio = applied
	}
	k.meter(idxTCH, CostTaskChanprio)
	return nil
}

// TerminateTask implements task_yield (TY) as Table I defines it —
// "terminate the current running task" — applied through the one-to-one
// master-thread correspondence: the committee resolves the issuing
// thread's task and terminates it.
func (k *Kernel) TerminateTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskYield, id)
	if err != nil {
		return err
	}
	k.killParked(t, "TY")
	if k.fault != nil {
		return k.fault
	}
	k.meter(idxTY, CostTaskYield)
	return nil
}

// --- synchronization object factories -----------------------------------

// NewSem creates a counting semaphore with the given initial count.
// Synchronization objects are kernel-independent values; the kernel
// method exists for API symmetry with real pCore.
func (k *Kernel) NewSem(name string, initial int) *Sem { return NewSem(name, initial) }

// NewMutex creates a mutex.
func (k *Kernel) NewMutex(name string) *Mutex { return NewMutex(name) }

// NewSem creates a counting semaphore with the given initial count.
func NewSem(name string, initial int) *Sem {
	return &Sem{name: name, count: initial}
}

// NewMutex creates a mutex.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

// --- introspection -------------------------------------------------------

// TaskSnapshot is one task's observable state for records and dumps.
type TaskSnapshot struct {
	ID        TaskID
	Name      string
	State     State
	Prio      Priority
	Progress  uint64
	Syscalls  uint64
	StackUsed int
	WaitingOn string // resource name while blocked
}

// Snapshot captures the kernel's observable state.
type Snapshot struct {
	Cycles      clock.Cycles
	Tasks       []TaskSnapshot
	Fault       *KernelFault
	TCBFree     int
	TCBGarbage  int
	TCBLeaked   int
	StackFree   int
	Ready       int
	CtxSwitches uint64
}

// Snapshot returns the current kernel state, tasks ordered by id.
func (k *Kernel) Snapshot() Snapshot {
	s := Snapshot{
		Cycles:      k.cycles,
		Fault:       k.fault,
		TCBFree:     k.tcbPool.Free(),
		TCBGarbage:  k.tcbPool.Garbage(),
		TCBLeaked:   k.tcbPool.Leaked(),
		StackFree:   k.stackPool.Free(),
		Ready:       k.ReadyCount(),
		CtxSwitches: k.ctxSwitches,
	}
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if t := k.tasks[id]; t != nil {
			s.Tasks = append(s.Tasks, t.snapshot())
		}
	}
	return s
}

// snapshot returns the task's observable state. It allocates only for a
// waiting task, whose WaitingOn names the resource.
func (t *Task) snapshot() TaskSnapshot {
	ts := TaskSnapshot{
		ID:        t.id,
		Name:      t.name,
		State:     t.state,
		Prio:      t.prio,
		Progress:  t.progress,
		Syscalls:  t.syscalls,
		StackUsed: t.stackUsed,
	}
	if t.waitSem != nil {
		ts.WaitingOn = "sem:" + t.waitSem.name
	}
	if t.waitMu != nil {
		ts.WaitingOn = "mutex:" + t.waitMu.name
	}
	if t.waitSendQ != nil {
		ts.WaitingOn = "q-send:" + t.waitSendQ.name
	}
	if t.waitRecvQ != nil {
		ts.WaitingOn = "q-recv:" + t.waitRecvQ.name
	}
	return ts
}

// TaskInfo returns one task's snapshot; ok is false for free slots.
func (k *Kernel) TaskInfo(id TaskID) (TaskSnapshot, bool) {
	if id == InvalidTask || int(id) > k.cfg.MaxTasks || k.tasks[id] == nil {
		return TaskSnapshot{}, false
	}
	return k.tasks[id].snapshot(), true
}

// TaskProgress is the part of a task's state the bug detector's
// progress check reads every interval.
type TaskProgress struct {
	ID       TaskID
	Name     string
	State    State
	Progress uint64
}

// AppendProgress appends every live task's progress to dst, tasks
// ordered by id, and returns the extended slice. A caller that passes
// back the previous result's dst[:0] checks progress without allocating.
func (k *Kernel) AppendProgress(dst []TaskProgress) []TaskProgress {
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if t := k.tasks[id]; t != nil {
			dst = append(dst, TaskProgress{ID: t.id, Name: t.name, State: t.state, Progress: t.progress})
		}
	}
	return dst
}

// LiveTasks returns the ids of all non-free task slots, ascending.
func (k *Kernel) LiveTasks() []TaskID {
	var out []TaskID
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if k.tasks[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// WaitOwners fills owner with the wait-for graph the detector's
// deadlock (cycle) analysis reads, and returns it: resized to the TCB
// table, owner[id] is the current owner of the mutex task id is blocked
// on, and InvalidTask for every other slot. Edges to dead owners are
// excluded: a mutex whose owner was deleted (pCore leaks such locks
// deliberately) is an orphaned lock, reported separately through
// OrphanedWaiters — and because TCB slots are reused, a stale owner
// pointer must be compared by identity, not by id. A blocked task waits
// on one mutex, so every task has at most one edge. Passing back the
// previous result fills it without allocating.
func (k *Kernel) WaitOwners(owner []TaskID) []TaskID {
	owner = slices.Grow(owner[:0], len(k.tasks))[:len(k.tasks)]
	for id, t := range k.tasks {
		owner[id] = InvalidTask
		if t == nil || t.state != StateBlocked || t.waitMu == nil || t.waitMu.owner == nil {
			continue
		}
		if o := t.waitMu.owner; k.tasks[o.id] == o {
			owner[id] = o.id
		}
	}
	return owner
}

// OrphanedWaiters returns tasks blocked on mutexes whose owners have
// terminated — locks leaked by task_delete/task_yield on a lock holder.
// Such waits can never be satisfied; the bug detector reports them as a
// synchronization anomaly in their own right.
func (k *Kernel) OrphanedWaiters() []TaskID {
	var out []TaskID
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		t := k.tasks[id]
		if t == nil || t.state != StateBlocked || t.waitMu == nil || t.waitMu.owner == nil {
			continue
		}
		owner := t.waitMu.owner
		if k.tasks[owner.id] != owner {
			out = append(out, id)
		}
	}
	return out
}

// ServiceStats returns per-service call counts and cumulative cycles.
func (k *Kernel) ServiceStats() (calls map[Service]uint64, cycles map[Service]clock.Cycles) {
	calls = make(map[Service]uint64, len(tableI))
	cycles = make(map[Service]clock.Cycles, len(tableI))
	for i, s := range tableI {
		if k.svcCalls[i] > 0 {
			calls[s] = k.svcCalls[i]
			cycles[s] = k.svcCycles[i]
		}
	}
	return calls, cycles
}

// Shutdown halts the kernel: it records a "shutdown" fault unless the
// kernel has already faulted, kills every remaining task, and stops
// every parked coroutine. Because the fault comes first, each body the
// kill unwinds ends its coroutine instead of parking it, and so does the
// task whose stack runs the handoff hook, once the hook returns to it:
// no coroutine outlives the kernel. The kernel is unusable afterwards.
// Safe to call on a crashed kernel, and more than once.
func (k *Kernel) Shutdown() {
	if k.fault == nil {
		k.fault = &KernelFault{Reason: "shutdown", Detail: "kernel halted", At: k.cycles}
	}
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		t := k.tasks[id]
		if t == nil {
			continue
		}
		k.killParked(t, "shutdown")
	}
	for _, c := range k.parked {
		c.stop()
	}
	k.parked = nil
}

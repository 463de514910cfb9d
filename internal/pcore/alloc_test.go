package pcore

import (
	"slices"
	"testing"
)

var infoSink TaskSnapshot

// TestTaskInfoDoesNotAllocate pins the one-task lookup the committee
// makes after every command: it builds that task's snapshot alone, and
// only a waiting task's WaitingOn needs a string.
func TestTaskInfoDoesNotAllocate(t *testing.T) {
	k := newK(t, Config{})
	var ids []TaskID
	for i := 0; i < 4; i++ {
		id, err := k.CreateTask("spin", 5, func(c *Ctx) {
			for {
				c.Yield()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	info, ok := k.TaskInfo(ids[2])
	if !ok || info.ID != ids[2] || info.State != StateReady || info.WaitingOn != "" {
		t.Fatalf("info %+v, ok %v", info, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { infoSink, _ = k.TaskInfo(ids[2]) }); allocs != 0 {
		t.Fatalf("TaskInfo on a ready task makes %.1f allocations, want 0", allocs)
	}
}

// TestReadyQueueCycleDoesNotAllocate pins the in-place ready queue: a
// task taken by pickNext and put back by enqueueFront reuses the
// queue's array, and the queue order is what a fresh slice would give.
func TestReadyQueueCycleDoesNotAllocate(t *testing.T) {
	k := newK(t, Config{})
	var ids []TaskID
	for i := 0; i < 3; i++ {
		id, err := k.CreateTask("spin", 5, func(c *Ctx) {})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	first := k.pickNext()
	k.enqueueFront(first)
	if got := k.ready[5]; !slices.Equal(got, ids) {
		t.Fatalf("queue %v after pick and put back, want %v", got, ids)
	}
	allocs := testing.AllocsPerRun(100, func() {
		k.enqueueFront(k.pickNext())
	})
	if allocs != 0 {
		t.Fatalf("a pickNext/enqueueFront cycle makes %.1f allocations, want 0", allocs)
	}
	// Pops shift the rest forward in order.
	for _, want := range ids {
		if got := k.pickNext(); got.id != want {
			t.Fatalf("popped task %d, want %d", got.id, want)
		}
	}
	if !k.Idle() {
		t.Fatal("queue not empty after popping every task")
	}
}

var errSink error

// TestRefusedServiceAllocatesOnce pins a refusal's cost: the committee
// reads only the error's type, so a refused service builds the
// *ServiceError and no text.
func TestRefusedServiceAllocatesOnce(t *testing.T) {
	k := newK(t, Config{})
	id, err := k.CreateTask("ready", 5, func(c *Ctx) {
		for {
			c.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { errSink = k.ResumeTask(id) })
	if _, ok := errSink.(*ServiceError); !ok {
		t.Fatalf("ResumeTask of a ready task returned %v, want a *ServiceError", errSink)
	}
	if allocs > 1 {
		t.Fatalf("a refused ResumeTask makes %.1f allocations, want at most 1", allocs)
	}
}

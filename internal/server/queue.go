// The bounded priority job queue feeding the worker pool. Higher
// priority pops first; within a priority, submission order (FIFO).
// Bounded so a traffic burst degrades to fast 503s instead of
// unbounded memory growth — the client retries, the daemon survives.
package server

import (
	"container/heap"
	"errors"
	"sort"
	"sync"
)

var (
	// ErrQueueFull rejects a submission when the queue is at capacity.
	ErrQueueFull = errors.New("server: queue full")
	// ErrQueueClosed rejects submissions after drain began.
	ErrQueueClosed = errors.New("server: queue closed")
)

type queueItem struct {
	job      *Job
	priority int
	seq      uint64
}

type jobHeap []queueItem

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority // higher priority first
	}
	return h[i].seq < h[j].seq // FIFO within a priority
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(queueItem)) }
func (h *jobHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// jobQueue is the blocking bounded priority queue.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	cap    int
	seq    uint64
	closed bool
}

func newJobQueue(capacity int) *jobQueue {
	if capacity <= 0 {
		capacity = 64
	}
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job or rejects it when the queue is full or closed.
func (q *jobQueue) Push(j *Job, priority int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.items) >= q.cap {
		return ErrQueueFull
	}
	q.seq++
	heap.Push(&q.items, queueItem{job: j, priority: priority, seq: q.seq})
	q.cond.Signal()
	return nil
}

// Pop blocks until an eligible job is available or the queue is closed
// and drained; ok=false means the worker should exit.
//
// acquire (may be nil = always eligible) is consulted in strict
// priority order and must atomically claim whatever resource gates the
// job — the per-tenant in-flight slot. It runs under the queue lock, so
// the claim and the dequeue are one step: two workers cannot both
// acquire the last slot for the same job's tenant. A job whose acquire
// fails is skipped, not popped — lower-priority jobs from unblocked
// tenants proceed past it (no head-of-line blocking) and the skipped
// job is re-examined on the next Push or Kick.
//
// acquired reports whether acquire claimed a slot the caller must
// release; once the queue closes, remaining items are handed out
// unacquired — the draining server cancels rather than runs them.
func (q *jobQueue) Pop(acquire func(*Job) bool) (j *Job, acquired, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			if len(q.items) == 0 {
				return nil, false, false
			}
			it := heap.Pop(&q.items).(queueItem)
			return it.job, false, true
		}
		if i, found := q.eligibleLocked(acquire); found {
			it := q.items[i]
			heap.Remove(&q.items, i)
			return it.job, acquire != nil, true
		}
		q.cond.Wait()
	}
}

// eligibleLocked returns the index of the first job, in pop order
// (priority desc, seq asc), that acquire accepts. It offers the heap
// root first, which acquire accepts unless that tenant is at its cap,
// and orders the rest of the backlog only when acquire refuses it.
// Callers hold q.mu.
func (q *jobQueue) eligibleLocked(acquire func(*Job) bool) (int, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	if acquire == nil || acquire(q.items[0].job) {
		return 0, true
	}
	order := make([]int, len(q.items)-1)
	for i := range order {
		order[i] = i + 1
	}
	sort.Slice(order, func(a, b int) bool { return q.items.Less(order[a], order[b]) })
	for _, i := range order {
		if acquire(q.items[i].job) {
			return i, true
		}
	}
	return 0, false
}

// Remove drops a still-queued job so cancelled jobs stop occupying
// capacity. False when a worker already popped it (harmless: the
// worker skips non-queued jobs).
func (q *jobQueue) Remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it.job == j {
			heap.Remove(&q.items, i)
			return true
		}
	}
	return false
}

// Kick wakes every blocked worker to rescan the backlog — called when
// external eligibility changes (a tenant's in-flight slot freed). The
// broadcast happens under the lock so it cannot slip between a
// waiter's failed scan and its Wait and be lost.
func (q *jobQueue) Kick() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Close wakes every blocked worker; queued items already present can
// still be popped (the server cancels them first during drain).
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Depth reports the current backlog.
func (q *jobQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

package pcore

// MsgQueue is a bounded FIFO message queue between tasks — pCore's
// intra-core IPC primitive. Senders block when the queue is full,
// receivers when it is empty; wakeups follow the same priority-FIFO
// discipline as semaphores, with direct handoff so a woken task's
// operation is already complete when it runs.
type MsgQueue struct {
	name string
	buf  []uint32
	cap  int

	sendQ waitQueue // tasks blocked sending (queue full)
	recvQ waitQueue // tasks blocked receiving (queue empty)
}

// NewQueue creates a message queue with the given capacity (minimum 1:
// pCore does not implement rendezvous queues).
func NewQueue(name string, capacity int) *MsgQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &MsgQueue{name: name, cap: capacity}
}

// NewQueue creates a message queue (kernel method for API symmetry).
func (k *Kernel) NewQueue(name string, capacity int) *MsgQueue {
	return NewQueue(name, capacity)
}

// Name returns the queue name.
func (q *MsgQueue) Name() string { return q.name }

// Len returns the number of buffered messages.
func (q *MsgQueue) Len() int { return len(q.buf) }

// Cap returns the queue capacity.
func (q *MsgQueue) Cap() int { return q.cap }

// SendWaiters returns the number of blocked senders.
func (q *MsgQueue) SendWaiters() int { return q.sendQ.len() }

// RecvWaiters returns the number of blocked receivers.
func (q *MsgQueue) RecvWaiters() int { return q.recvQ.len() }

// handleSend processes a send request inside the kernel; it returns true
// when the task completed the operation and should continue, false when
// it blocked. Wakeups are direct handoffs: the woken counterparty's
// pending operation is already complete (its wake status stays nil), so
// no per-task grant state is needed.
func (k *Kernel) handleSend(t *Task, q *MsgQueue, msg uint32) bool {
	if w := q.recvQ.pop(); w != nil {
		// Direct handoff to the longest-waiting best-priority receiver.
		w.state = StateReady
		w.waitRecvQ = nil
		w.recvVal = msg
		k.enqueueBack(w)
		k.emitOn(w.id, EvWake, "queue ", q.name)
		return true
	}
	if len(q.buf) < q.cap {
		q.buf = append(q.buf, msg)
		return true
	}
	t.state = StateBlocked
	t.waitSendQ = q
	t.sendVal = msg
	q.sendQ.push(t)
	k.emitOn(t.id, EvBlock, "queue-send ", q.name)
	return false
}

// handleRecv processes a receive request; on completion t.recvVal holds
// the message.
func (k *Kernel) handleRecv(t *Task, q *MsgQueue) bool {
	if len(q.buf) > 0 {
		t.recvVal = q.buf[0]
		q.buf = append(q.buf[:0], q.buf[1:]...)
		// A blocked sender can now deposit its message; its pending send
		// completes at its next dispatch.
		if w := q.sendQ.pop(); w != nil {
			q.buf = append(q.buf, w.sendVal)
			w.state = StateReady
			w.waitSendQ = nil
			k.enqueueBack(w)
			k.emitOn(w.id, EvWake, "queue ", q.name)
		}
		return true
	}
	t.state = StateBlocked
	t.waitRecvQ = q
	q.recvQ.push(t)
	k.emitOn(t.id, EvBlock, "queue-recv ", q.name)
	return false
}

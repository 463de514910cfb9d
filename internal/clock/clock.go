// Package clock provides the virtual time base and discrete-event queue
// that drive the simulated OMAP platform. All latencies in the simulator
// (mailbox hops, kernel services, compute bursts) are expressed in virtual
// cycles of this clock, so runs are reproducible and benches can report
// cycle costs independent of host speed.
package clock

import "fmt"

// Cycles is a duration or instant expressed in virtual processor cycles.
// The reproduction loosely calibrates one cycle to 1/192MHz (the OMAP5912
// core clock), but only relative magnitudes matter to the experiments.
type Cycles uint64

// Event names a scheduled callback, for Cancel. The zero Event names
// none.
type Event struct{ id uint64 }

// event is one scheduled callback, held by value in the queue. fire is
// invoked with the clock already advanced to due.
type event struct {
	due  Cycles
	seq  uint64 // tie-break so equal-time events fire in schedule order
	fire func()
}

func (e *event) before(o *event) bool {
	if e.due != o.due {
		return e.due < o.due
	}
	return e.seq < o.seq
}

// Clock is a virtual-time discrete-event scheduler. The zero value is a
// clock at time zero with no pending events, ready to use. Its queue is
// a binary min-heap of events by value ordered by (due, seq), so
// scheduling allocates nothing once the heap has grown.
type Clock struct {
	now   Cycles
	seq   uint64
	queue []event
}

// Now returns the current virtual time.
func (c *Clock) Now() Cycles { return c.now }

// Pending returns the number of scheduled, uncancelled events.
func (c *Clock) Pending() int { return len(c.queue) }

// Advance moves the clock forward by d cycles without firing events; it is
// used by the co-simulation loop to charge compute time. It panics if the
// move would jump over a pending event, which would reorder causality.
func (c *Clock) Advance(d Cycles) {
	target := c.now + d
	if next, ok := c.peek(); ok && next.due < target {
		panic(fmt.Sprintf("clock: Advance(%d) would skip event due at %d (now %d)", d, next.due, c.now))
	}
	c.now = target
}

// AdvanceTo moves the clock to the given absolute time, subject to the same
// no-skip rule as Advance. Moving backwards is a no-op.
func (c *Clock) AdvanceTo(t Cycles) {
	if t <= c.now {
		return
	}
	c.Advance(t - c.now)
}

// Schedule registers fn to fire after delay cycles and returns the event
// handle, which can be cancelled until it fires.
func (c *Clock) Schedule(delay Cycles, fn func()) Event {
	c.queue = append(c.queue, event{due: c.now + delay, seq: c.seq, fire: fn})
	c.seq++
	c.up(len(c.queue) - 1)
	return Event{id: c.seq} // seq+1 of the new event, so never zero
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or already cancelled event, or the zero Event, is a harmless
// no-op.
func (c *Clock) Cancel(e Event) {
	if e.id == 0 {
		return
	}
	for i := range c.queue {
		if c.queue[i].seq == e.id-1 {
			c.remove(i)
			return
		}
	}
}

// peek returns the earliest pending event.
func (c *Clock) peek() (*event, bool) {
	if len(c.queue) == 0 {
		return nil, false
	}
	return &c.queue[0], true
}

// pop removes the earliest pending event and returns it.
func (c *Clock) pop() event {
	e := c.queue[0]
	c.remove(0)
	return e
}

// remove deletes the event at heap index i.
func (c *Clock) remove(i int) {
	last := len(c.queue) - 1
	if i != last {
		c.queue[i] = c.queue[last]
	}
	c.queue[last] = event{} // drop the callback for the collector
	c.queue = c.queue[:last]
	if i < last {
		c.down(i)
		c.up(i)
	}
}

func (c *Clock) up(i int) {
	q := c.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (c *Clock) down(i int) {
	q := c.queue
	for {
		least := i
		if l := 2*i + 1; l < len(q) && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(q) && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// NextDue returns the due time of the earliest pending event.
func (c *Clock) NextDue() (Cycles, bool) {
	e, ok := c.peek()
	if !ok {
		return 0, false
	}
	return e.due, true
}

// Step fires the single earliest pending event, advancing the clock to its
// due time. It returns false if no events are pending.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := c.pop()
	c.now = e.due
	e.fire()
	return true
}

// RunUntil fires events in order until the next event would be due after t,
// then advances the clock to exactly t. It returns the number of events
// fired.
func (c *Clock) RunUntil(t Cycles) int {
	fired := 0
	for {
		if len(c.queue) == 0 || c.queue[0].due > t {
			break
		}
		e := c.pop()
		c.now = e.due
		e.fire()
		fired++
	}
	if c.now < t {
		c.now = t
	}
	return fired
}

// Drain fires all pending events in order (including ones scheduled while
// draining) up to the given safety limit and returns the number fired. It
// is mainly useful in tests; a limit of 0 means no limit.
func (c *Clock) Drain(limit int) int {
	fired := 0
	for {
		if limit > 0 && fired >= limit {
			return fired
		}
		if !c.Step() {
			return fired
		}
		fired++
	}
}

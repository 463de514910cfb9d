// Package interrupt models a per-core interrupt controller: numbered
// lines with pending/masked state and registered handlers, dispatched at
// the core's next simulation boundary (interrupts in the co-simulation
// are precise at kernel-event granularity).
package interrupt

import (
	"fmt"
	"math/bits"
)

// Line identifies an interrupt line on one controller.
type Line int

// Conventional line assignments on the simulated platform.
const (
	LineMailboxCmd   Line = 0 // command mailbox non-empty
	LineMailboxReply Line = 1 // reply mailbox non-empty
	LineMailboxData  Line = 2 // data mailbox non-empty
	LineMailboxEvent Line = 3 // event mailbox non-empty
	LineTimer        Line = 4 // periodic timer tick
	NumLines              = 8
)

// Controller is one core's interrupt controller. The zero value is not
// ready; use New.
type Controller struct {
	name       string
	pending    uint32
	masked     uint32
	handlers   [NumLines]func()
	raised     uint64
	dispatched uint64
}

// New returns a controller with all lines unmasked and no handlers.
func New(name string) *Controller {
	return &Controller{name: name}
}

// Name returns the controller name.
func (c *Controller) Name() string { return c.name }

func (c *Controller) checkLine(l Line) {
	if l < 0 || l >= NumLines {
		panic(fmt.Sprintf("interrupt: line %d out of range", l))
	}
}

// Handle registers the handler for a line (last registration wins).
func (c *Controller) Handle(l Line, fn func()) {
	c.checkLine(l)
	c.handlers[l] = fn
}

// Raise marks the line pending. Raising an already pending line is
// idempotent (level-triggered semantics).
func (c *Controller) Raise(l Line) {
	c.checkLine(l)
	c.pending |= 1 << uint(l)
	c.raised++
}

// Pending reports whether the line is pending.
func (c *Controller) Pending(l Line) bool {
	c.checkLine(l)
	return c.pending&(1<<uint(l)) != 0
}

// AnyPending reports whether any unmasked line is pending.
func (c *Controller) AnyPending() bool {
	return c.pending&^c.masked != 0
}

// Mask disables dispatch of the line (it can still become pending).
func (c *Controller) Mask(l Line) {
	c.checkLine(l)
	c.masked |= 1 << uint(l)
}

// Unmask re-enables dispatch of the line.
func (c *Controller) Unmask(l Line) {
	c.checkLine(l)
	c.masked &^= 1 << uint(l)
}

// Masked reports whether the line is masked.
func (c *Controller) Masked(l Line) bool {
	c.checkLine(l)
	return c.masked&(1<<uint(l)) != 0
}

// Dispatch runs the handlers of all pending unmasked lines in line order,
// clearing each line before its handler runs (so a handler may re-raise).
// It returns the number of handlers invoked. Lines without handlers stay
// pending — the owning kernel polls them explicitly.
func (c *Controller) Dispatch() int {
	n := 0
	// Jump from one pending unmasked line to the next, re-reading the
	// lines after each handler: a line raised by a handler is served in
	// this pass when it comes later in line order, in the next otherwise.
	for next := 0; next < NumLines; {
		live := (c.pending &^ c.masked) >> next
		if live == 0 {
			break
		}
		l := next + bits.TrailingZeros32(live)
		next = l + 1
		h := c.handlers[l]
		if h == nil {
			continue
		}
		c.pending &^= 1 << uint(l)
		c.dispatched++
		n++
		h()
	}
	return n
}

// Ack clears the pending state of a line without dispatching it.
func (c *Controller) Ack(l Line) {
	c.checkLine(l)
	c.pending &^= 1 << uint(l)
}

// Stats returns lifetime raise/dispatch counters.
func (c *Controller) Stats() (raised, dispatched uint64) {
	return c.raised, c.dispatched
}

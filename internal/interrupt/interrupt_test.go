package interrupt

import "testing"

func TestRaiseAndDispatch(t *testing.T) {
	c := New("t")
	fired := 0
	c.Handle(LineTimer, func() { fired++ })
	c.Raise(LineTimer)
	if !c.Pending(LineTimer) {
		t.Fatal("not pending after raise")
	}
	if n := c.Dispatch(); n != 1 || fired != 1 {
		t.Fatalf("dispatch n=%d fired=%d", n, fired)
	}
	if c.Pending(LineTimer) {
		t.Fatal("still pending after dispatch")
	}
	// Re-dispatch with nothing pending.
	if n := c.Dispatch(); n != 0 {
		t.Fatalf("spurious dispatch %d", n)
	}
}

func TestLevelTriggeredIdempotent(t *testing.T) {
	c := New("t")
	fired := 0
	c.Handle(0, func() { fired++ })
	c.Raise(0)
	c.Raise(0)
	c.Raise(0)
	if n := c.Dispatch(); n != 1 || fired != 1 {
		t.Fatalf("n=%d fired=%d", n, fired)
	}
}

func TestMasking(t *testing.T) {
	c := New("t")
	fired := false
	c.Handle(1, func() { fired = true })
	c.Mask(1)
	if !c.Masked(1) {
		t.Fatal("not masked")
	}
	c.Raise(1)
	if c.AnyPending() {
		t.Fatal("masked line counted in AnyPending")
	}
	if n := c.Dispatch(); n != 0 || fired {
		t.Fatal("masked line dispatched")
	}
	c.Unmask(1)
	if !c.AnyPending() {
		t.Fatal("pending lost across unmask")
	}
	if n := c.Dispatch(); n != 1 || !fired {
		t.Fatal("unmasked line not dispatched")
	}
}

func TestDispatchOrder(t *testing.T) {
	c := New("t")
	var order []Line
	for l := Line(0); l < 4; l++ {
		l := l
		c.Handle(l, func() { order = append(order, l) })
	}
	c.Raise(3)
	c.Raise(0)
	c.Raise(2)
	c.Dispatch()
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestHandlerMayReRaise(t *testing.T) {
	c := New("t")
	count := 0
	c.Handle(0, func() {
		count++
		if count == 1 {
			c.Raise(0)
		}
	})
	c.Raise(0)
	c.Dispatch() // runs once; the re-raise stays pending for the next round
	if count != 1 || !c.Pending(0) {
		t.Fatalf("count=%d pending=%v", count, c.Pending(0))
	}
	c.Dispatch()
	if count != 2 {
		t.Fatalf("count=%d", count)
	}
}

// TestHandlerChangesLaterLines pins what a pass sees of a handler's
// changes: a line raised after the running one is served in the same
// pass, an earlier one waits for the next, and a later line masked by
// the handler is not served.
func TestHandlerChangesLaterLines(t *testing.T) {
	c := New("t")
	var order []Line
	for l := Line(0); l < NumLines; l++ {
		l := l
		c.Handle(l, func() {
			order = append(order, l)
			if l == 2 {
				c.Raise(1)
				c.Raise(5)
				c.Mask(6)
			}
		})
	}
	c.Raise(2)
	c.Raise(6)
	c.Raise(7)
	if n := c.Dispatch(); n != 3 || len(order) != 3 || order[0] != 2 || order[1] != 5 || order[2] != 7 {
		t.Fatalf("first pass ran %d handlers in order %v, want 2, 5, 7", n, order)
	}
	if !c.Pending(1) || !c.Pending(6) {
		t.Fatalf("pending lines 1=%v 6=%v, want both still pending", c.Pending(1), c.Pending(6))
	}
	order = nil
	if n := c.Dispatch(); n != 1 || len(order) != 1 || order[0] != 1 {
		t.Fatalf("second pass ran %d handlers in order %v, want 1", n, order)
	}
}

func TestUnhandledLineStaysPending(t *testing.T) {
	c := New("t")
	c.Raise(5)
	if n := c.Dispatch(); n != 0 {
		t.Fatal("handler-less line dispatched")
	}
	if !c.Pending(5) {
		t.Fatal("handler-less line lost")
	}
	c.Ack(5)
	if c.Pending(5) {
		t.Fatal("ack failed")
	}
}

func TestStats(t *testing.T) {
	c := New("t")
	c.Handle(0, func() {})
	c.Raise(0)
	c.Raise(1)
	c.Dispatch()
	raised, dispatched := c.Stats()
	if raised != 2 || dispatched != 1 {
		t.Fatalf("stats %d %d", raised, dispatched)
	}
}

func TestLineRangePanics(t *testing.T) {
	c := New("t")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range line accepted")
		}
	}()
	c.Raise(NumLines)
}

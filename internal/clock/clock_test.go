package clock

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatal("fresh clock has pending events")
	}
	if c.Step() {
		t.Fatal("Step on empty clock returned true")
	}
}

func TestScheduleAndStepOrder(t *testing.T) {
	var c Clock
	var got []int
	c.Schedule(30, func() { got = append(got, 3) })
	c.Schedule(10, func() { got = append(got, 1) })
	c.Schedule(20, func() { got = append(got, 2) })
	for c.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v", got)
	}
	if c.Now() != 30 {
		t.Fatalf("clock at %d, want 30", c.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	var c Clock
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5, func() { got = append(got, i) })
	}
	c.Drain(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var c Clock
	fired := false
	e := c.Schedule(10, func() { fired = true })
	c.Cancel(e)
	if c.Pending() != 0 {
		t.Fatal("cancelled event still pending")
	}
	c.Drain(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops, and so is
	// cancelling an event that has fired.
	c.Cancel(e)
	c.Cancel(Event{})
	later := c.Schedule(5, func() {})
	c.Drain(0)
	c.Schedule(5, func() { fired = true })
	c.Cancel(later)
	if c.Pending() != 1 {
		t.Fatal("cancelling a fired event removed a pending one")
	}
	c.Drain(0)
	if !fired {
		t.Fatal("pending event did not fire")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	var c Clock
	var got []int
	e1 := c.Schedule(10, func() { got = append(got, 1) })
	c.Schedule(20, func() { got = append(got, 2) })
	c.Schedule(30, func() { got = append(got, 3) })
	c.Cancel(e1)
	c.Drain(0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v after cancel", got)
	}
}

func TestAdvance(t *testing.T) {
	var c Clock
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("now=%d", c.Now())
	}
	c.AdvanceTo(50) // backwards: no-op
	if c.Now() != 100 {
		t.Fatal("AdvanceTo moved backwards")
	}
	c.AdvanceTo(150)
	if c.Now() != 150 {
		t.Fatalf("now=%d", c.Now())
	}
}

func TestAdvancePanicsOverEvent(t *testing.T) {
	var c Clock
	c.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance over pending event did not panic")
		}
	}()
	c.Advance(11)
}

func TestAdvanceUpToEventBoundaryOK(t *testing.T) {
	var c Clock
	c.Schedule(10, func() {})
	c.Advance(10) // exactly at due time is allowed; event still pending
	if c.Pending() != 1 {
		t.Fatal("event lost")
	}
}

func TestRunUntil(t *testing.T) {
	var c Clock
	var got []int
	c.Schedule(10, func() { got = append(got, 1) })
	c.Schedule(20, func() { got = append(got, 2) })
	c.Schedule(30, func() { got = append(got, 3) })
	n := c.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Fatalf("fired %d events: %v", n, got)
	}
	if c.Now() != 25 {
		t.Fatalf("now=%d, want 25", c.Now())
	}
	c.RunUntil(100)
	if len(got) != 3 {
		t.Fatal("remaining event did not fire")
	}
}

func TestEventsScheduledWhileFiring(t *testing.T) {
	var c Clock
	var got []string
	c.Schedule(10, func() {
		got = append(got, "outer")
		c.Schedule(5, func() { got = append(got, "inner") })
	})
	c.Drain(0)
	if len(got) != 2 || got[1] != "inner" {
		t.Fatalf("got %v", got)
	}
	if c.Now() != 15 {
		t.Fatalf("now=%d", c.Now())
	}
}

func TestNextDue(t *testing.T) {
	var c Clock
	if _, ok := c.NextDue(); ok {
		t.Fatal("empty clock has NextDue")
	}
	c.Schedule(42, func() {})
	due, ok := c.NextDue()
	if !ok || due != 42 {
		t.Fatalf("NextDue=%d,%v", due, ok)
	}
}

func TestDrainLimit(t *testing.T) {
	var c Clock
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		c.Schedule(1, reschedule)
	}
	c.Schedule(1, reschedule)
	fired := c.Drain(100)
	if fired != 100 || count != 100 {
		t.Fatalf("fired %d, count %d", fired, count)
	}
}

func TestPendingCountsOnlyLive(t *testing.T) {
	var c Clock
	e := c.Schedule(1, func() {})
	c.Schedule(2, func() {})
	c.Cancel(e)
	if c.Pending() != 1 {
		t.Fatalf("pending=%d", c.Pending())
	}
}

func TestMonotonicTimeProperty(t *testing.T) {
	// Property: firing any schedule of events never moves time backwards
	// and fires in nondecreasing due order.
	err := quick.Check(func(delays []uint8) bool {
		var c Clock
		var fireTimes []Cycles
		for _, d := range delays {
			c.Schedule(Cycles(d), func() { fireTimes = append(fireTimes, c.Now()) })
		}
		c.Drain(0)
		last := Cycles(0)
		for _, ft := range fireTimes {
			if ft < last {
				return false
			}
			last = ft
		}
		return len(fireTimes) == len(delays)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScheduleCancelModelProperty(t *testing.T) {
	// Property: whatever mix of schedules and cancels, events fire in
	// (due, schedule order), cancelled ones never, and Pending counts
	// what is left.
	err := quick.Check(func(ops []uint16) bool {
		var c Clock
		type sched struct {
			due       Cycles
			ev        Event
			cancelled bool
		}
		var all []*sched
		var fired []int
		for _, op := range ops {
			if op%4 == 0 && len(all) > 0 {
				s := all[int(op/4)%len(all)]
				c.Cancel(s.ev)
				s.cancelled = true
				continue
			}
			i := len(all)
			s := &sched{due: Cycles(op % 50)}
			s.ev = c.Schedule(s.due, func() { fired = append(fired, i) })
			all = append(all, s)
		}
		live := 0
		for _, s := range all {
			if !s.cancelled {
				live++
			}
		}
		if c.Pending() != live {
			return false
		}
		c.Drain(0)
		if len(fired) != live {
			return false
		}
		for k, i := range fired {
			if all[i].cancelled {
				return false
			}
			if k > 0 {
				prev := all[fired[k-1]]
				if prev.due > all[i].due || (prev.due == all[i].due && fired[k-1] > i) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

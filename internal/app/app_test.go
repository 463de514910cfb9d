package app

import (
	"fmt"
	"testing"

	"repro/internal/bridge"
	"repro/internal/detector"
	"repro/internal/master"
	"repro/internal/pcore"
	"repro/internal/platform"
)

func newP(t *testing.T, cfg platform.Config) *platform.Platform {
	t.Helper()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func TestQuicksortTaskSortsWithinStack(t *testing.T) {
	p := newP(t, platform.Config{Factory: QuicksortFactory(7)})
	done := false
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		if rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff); err != nil || rep.Status != bridge.StatusOK {
			t.Errorf("TC: %v %v", rep, err)
			return
		}
		done = true
	})
	p.RunUntilQuiescent(2_000_000)
	if !done {
		t.Fatal("TC never completed")
	}
	if p.Slave.Crashed() {
		t.Fatalf("quicksort crashed the kernel: %v", p.Slave.Fault())
	}
	// Task ran to completion (slot free again) without stack overflow.
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d tasks alive", n)
	}
}

func TestSixteenQuicksortTasks(t *testing.T) {
	// The paper's stress configuration: 16 concurrent quicksort tasks.
	p := newP(t, platform.Config{Factory: QuicksortFactory(21)})
	oks := 0
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		for logical := uint32(0); logical < 16; logical++ {
			rep, err := p.Client.Call(ctx, bridge.CodeTC, logical, 0xffffffff)
			if err != nil {
				t.Errorf("TC %d: %v", logical, err)
				return
			}
			if rep.Status == bridge.StatusOK {
				oks++
			}
		}
	})
	p.RunUntilQuiescent(5_000_000)
	if oks != 16 {
		t.Fatalf("created %d of 16 tasks", oks)
	}
	if p.Slave.Crashed() {
		t.Fatalf("crash: %v", p.Slave.Fault())
	}
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d tasks never finished", n)
	}
}

func TestUnboundedQuicksortOverflowsStack(t *testing.T) {
	p := newP(t, platform.Config{Factory: UnboundedQuicksortFactory()})
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		_, _ = p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
	})
	p.RunUntilQuiescent(2_000_000)
	f := p.Slave.Fault()
	if f == nil || f.Reason != pcore.FaultStackOverflow {
		t.Fatalf("fault %v", f)
	}
}

func TestPhilosophersOrderedNeverDeadlocks(t *testing.T) {
	factory, _ := Philosophers(3, 50, true)
	p := newP(t, platform.Config{Factory: factory})
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		for logical := uint32(0); logical < 3; logical++ {
			_, _ = p.Client.Call(ctx, bridge.CodeTC, logical, 0xffffffff)
		}
	})
	d := detector.New(p, nil, detector.Options{CheckEvery: 32})
	r := d.Run(5_000_000)
	if r != nil {
		t.Fatalf("ordered philosophers reported %v", r)
	}
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d philosophers stuck", n)
	}
}

func TestPhilosophersBuggyRunsCleanWithoutStress(t *testing.T) {
	// Functional testing does not expose the deadlock: without suspend/
	// resume stress the unordered philosophers complete their rounds
	// (the kernel rotates tasks only at yields with a huge quantum).
	factory, _ := Philosophers(3, 50, false)
	p := newP(t, platform.Config{
		Factory: factory,
		Kernel:  pcore.Config{Quantum: 1 << 30},
	})
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		for logical := uint32(0); logical < 3; logical++ {
			_, _ = p.Client.Call(ctx, bridge.CodeTC, logical, 0xffffffff)
		}
	})
	d := detector.New(p, nil, detector.Options{CheckEvery: 32})
	r := d.Run(5_000_000)
	if r != nil {
		t.Fatalf("unstressed buggy philosophers reported %v", r)
	}
}

func TestProducerConsumerLosesWakeupUnderSuspension(t *testing.T) {
	// The lost-wakeup window needs a suspension between the consumer's
	// check and its SemWait; drive it directly with TS/TR.
	factory := ProducerConsumer(5)
	p := newP(t, platform.Config{Factory: factory})
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		// Create consumer first (logical 1), then producer (logical 0):
		// the consumer checks count==0, we suspend it in the window, let
		// the producer run (sees waiting=false... actually the consumer
		// set waiting=1 before the window — the producer signals, but the
		// final produced items land after the consumer re-sleeps).
		_, _ = p.Client.Call(ctx, bridge.CodeTC, 1, 0xffffffff)
		ctx.Compute(200) // let the consumer reach its wait window
		_, _ = p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
	})
	d := detector.New(p, nil, detector.Options{CheckEvery: 16})
	r := d.Run(5_000_000)
	// Depending on the interleave this either completes or hangs with the
	// consumer blocked; both are legal outcomes for this harness test —
	// the campaign-level bench measures the discovery rate. Here we only
	// require: no crash, and any report is a hang.
	if p.Slave.Crashed() {
		t.Fatalf("crash: %v", p.Slave.Fault())
	}
	if r != nil && r.Kind != detector.BugHang && r.Kind != detector.BugLivelock {
		t.Fatalf("unexpected report %v", r)
	}
}

func TestPriorityInversionStarvesHighTask(t *testing.T) {
	factory := PriorityInversion(100000)
	p := newP(t, platform.Config{Factory: factory})
	p.Master.Spawn("drv", func(ctx *master.Ctx) {
		for logical := uint32(0); logical < 3; logical++ {
			_, _ = p.Client.Call(ctx, bridge.CodeTC, logical, 0xffffffff)
		}
	})
	d := detector.New(p, nil, detector.Options{CheckEvery: 32, ProgressWindow: 50000})
	r := d.Run(5_000_000)
	if r == nil || r.Kind != detector.BugStarvation {
		t.Fatalf("report %v", r)
	}
}

func TestFigure1GoodOrderCompletes(t *testing.T) {
	p := newP(t, platform.Config{})
	xAddr, yAddr, err := Figure1(p, false)
	if err != nil {
		t.Fatal(err)
	}
	d := detector.New(p, nil, detector.Options{CheckEvery: 16, ProgressWindow: 50000})
	r := d.Run(2_000_000)
	if r != nil {
		t.Fatalf("good order reported %v", r)
	}
	x, _ := p.SoC.SRAM.Read32(xAddr)
	y, _ := p.SoC.SRAM.Read32(yAddr)
	if x != 0 || y != 0 {
		t.Fatalf("flags x=%d y=%d after clean finish", x, y)
	}
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d slave processes stuck", n)
	}
}

func TestFigure1BadOrderLivelocks(t *testing.T) {
	p := newP(t, platform.Config{})
	xAddr, yAddr, err := Figure1(p, true)
	if err != nil {
		t.Fatal(err)
	}
	d := detector.New(p, nil, detector.Options{CheckEvery: 16, ProgressWindow: 50000})
	r := d.Run(5_000_000)
	if r == nil || r.Kind != detector.BugLivelock {
		t.Fatalf("report %v", r)
	}
	// The paper: states d, e, i, j unreachable — both flags stay 1.
	x, _ := p.SoC.SRAM.Read32(xAddr)
	y, _ := p.SoC.SRAM.Read32(yAddr)
	if x != 1 || y != 1 {
		t.Fatalf("flags x=%d y=%d, want both 1 (spinning)", x, y)
	}
}

// TestTaskNamesMatchFormatting pins the name tables to the strings
// fmt.Sprintf used to build, inside the table and past it.
func TestTaskNamesMatchFormatting(t *testing.T) {
	for _, n := range []*names{spinNames, qsortNames, unboundedNames, philNames, forkNames} {
		for _, id := range []uint32{0, 1, 9, 10, 15, 16, 17, 99, 1000, 1<<32 - 1} {
			if got, want := n.of(id), fmt.Sprintf("%s%d", n.prefix, id); got != want {
				t.Fatalf("name of %d is %q, want %q", id, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = qsortNames.of(15) }); allocs != 0 {
		t.Fatalf("naming a task in the table makes %.1f allocations, want 0", allocs)
	}
}

package platform

import (
	"testing"

	"repro/internal/bridge"
	"repro/internal/committee"
	"repro/internal/committer"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/recording"
)

// spinFactory creates tasks that yield forever (controllable via TS/TR/TD).
func spinFactory(logical uint32) committee.CreateSpec {
	return committee.CreateSpec{
		Name: "spin",
		Prio: 5,
		Entry: func(c *pcore.Ctx) {
			for {
				c.Progress()
				c.Yield()
			}
		},
	}
}

func newP(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func TestEndToEndSingleCommand(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	var got bridge.Reply
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got = rep
	})
	p.RunUntilQuiescent(10000)
	if got.Status != bridge.StatusOK {
		t.Fatalf("status %v", got.Status)
	}
	if _, ok := p.Committee.Task(0); !ok {
		t.Fatal("logical task 0 not registered")
	}
	if len(p.Slave.LiveTasks()) != 1 {
		t.Fatalf("live tasks %v", p.Slave.LiveTasks())
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	var statuses []bridge.Status
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		for _, step := range []struct {
			op   bridge.ServiceCode
			arg1 uint32
		}{
			{bridge.CodeTC, 7},
			{bridge.CodeTS, 0xffffffff},
			{bridge.CodeTR, 0xffffffff},
			{bridge.CodeTCH, 9},
			{bridge.CodeTD, 0xffffffff},
		} {
			rep, err := p.Client.Call(ctx, step.op, 0, step.arg1)
			if err != nil {
				t.Errorf("call %v: %v", step.op, err)
				return
			}
			statuses = append(statuses, rep.Status)
		}
	})
	p.RunUntilQuiescent(20000)
	if len(statuses) != 5 {
		t.Fatalf("completed %d of 5 commands", len(statuses))
	}
	for i, st := range statuses {
		if st != bridge.StatusOK {
			t.Fatalf("command %d status %v", i, st)
		}
	}
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d tasks alive after TD", n)
	}
}

func TestIllegalSequenceGetsServiceError(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	var last bridge.Status
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		// TR without TS: "resume only when suspended".
		if rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff); err != nil || rep.Status != bridge.StatusOK {
			t.Errorf("TC failed: %v %v", rep.Status, err)
		}
		rep, err := p.Client.Call(ctx, bridge.CodeTR, 0, 0xffffffff)
		if err != nil {
			t.Error(err)
			return
		}
		last = rep.Status
	})
	p.RunUntilQuiescent(10000)
	if last != bridge.StatusServiceError {
		t.Fatalf("status %v, want service error", last)
	}
}

func TestUnknownTaskStatus(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	var st bridge.Status
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		rep, err := p.Client.Call(ctx, bridge.CodeTS, 3, 0xffffffff)
		if err != nil {
			t.Error(err)
			return
		}
		st = rep.Status
	})
	p.RunUntilQuiescent(10000)
	if st != bridge.StatusUnknownTask {
		t.Fatalf("status %v", st)
	}
}

func TestCommitterIssuesMergedPattern(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	// Three logical tasks, each with a full legal lifecycle.
	sources := [][]string{
		{"TC", "TCH", "TD"},
		{"TC", "TS", "TR", "TY"},
		{"TC", "TD"},
	}
	merged, err := pattern.Merge(sources, pattern.OpRoundRobin, nil, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := recording.NewJournal(0)
	cmt := committer.New(p.Client, merged, merged.PerTask(), nil, j, p.Now)
	p.Master.Spawn("committer", cmt.ThreadBody)
	p.RunUntilQuiescent(50000)
	if !cmt.Finished {
		t.Fatalf("committer did not finish: %d of %d commands",
			cmt.Progress(), merged.Len())
	}
	counts := cmt.StatusCounts()
	if counts[bridge.StatusOK] != merged.Len() {
		t.Fatalf("statuses %v", counts)
	}
	if j.Len() != merged.Len() {
		t.Fatalf("journal %d records, want %d", j.Len(), merged.Len())
	}
	// All tasks ended their lifecycle: none alive.
	if n := len(p.Slave.LiveTasks()); n != 0 {
		t.Fatalf("%d slave tasks alive", n)
	}
	// Records carry the Definition 2 fields.
	for _, e := range j.Entries() {
		if e.Record.QM == "" || e.Record.SN < 1 || len(e.Record.TP) == 0 {
			t.Fatalf("malformed record %+v", e.Record)
		}
	}
}

func TestSlaveCrashLeavesCommitterParked(t *testing.T) {
	// Arm the GC-leak fault and churn create/delete until the slave dies;
	// the committer's in-flight command never completes.
	p := newP(t, Config{
		Factory: spinFactory,
		Kernel:  pcore.Config{GCEvery: 2, Faults: pcore.FaultPlan{GCLeakEvery: 1}},
	})
	var src []string
	for i := 0; i < 60; i++ {
		src = append(src, "TC", "TD")
	}
	merged, err := pattern.Merge([][]string{src}, pattern.OpSequential, nil, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmt := committer.New(p.Client, merged, merged.PerTask(), nil, nil, p.Now)
	id := p.Master.Spawn("committer", cmt.ThreadBody)
	p.RunUntilQuiescent(200000)
	if !p.Slave.Crashed() {
		t.Fatal("slave did not crash under GC fault")
	}
	if cmt.Finished {
		t.Fatal("committer finished against a dead slave")
	}
	th := p.Master.Thread(id)
	if th.State() != master.TParked {
		t.Fatalf("committer thread state %v, want parked on rpc", th.State())
	}
	if th.ParkedOn() != "rpc" {
		t.Fatalf("parked on %q", th.ParkedOn())
	}
}

func TestPlatformDeterminism(t *testing.T) {
	run := func() (uint64, int, string) {
		p, err := New(Config{Factory: spinFactory})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Shutdown()
		sources := [][]string{{"TC", "TS", "TR", "TD"}, {"TC", "TCH", "TY"}}
		merged, _ := pattern.Merge(sources, pattern.OpRoundRobin, nil, pattern.Options{})
		j := recording.NewJournal(0)
		cmt := committer.New(p.Client, merged, merged.PerTask(), nil, j, p.Now)
		p.Master.Spawn("committer", cmt.ThreadBody)
		p.RunUntilQuiescent(50000)
		return uint64(p.Now()), j.Len(), j.Dump()
	}
	t1, n1, d1 := run()
	t2, n2, d2 := run()
	if t1 != t2 || n1 != n2 || d1 != d2 {
		t.Fatalf("nondeterministic platform: t=%d/%d n=%d/%d", t1, t2, n1, n2)
	}
}

func TestQuiescentDetection(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	if !p.Quiescent() {
		t.Fatal("fresh platform with no work not quiescent")
	}
	p.Master.Spawn("w", func(ctx *master.Ctx) { ctx.Compute(10) })
	if p.Quiescent() {
		t.Fatal("platform with ready thread reported quiescent")
	}
	p.RunUntilQuiescent(1000)
	if !p.Quiescent() {
		t.Fatal("drained platform not quiescent")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	p := newP(t, Config{Factory: spinFactory})
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		_, _ = p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
	})
	p.RunUntilQuiescent(10000)
	if p.Now() == 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestDefaultFactory(t *testing.T) {
	p := newP(t, Config{}) // nil factory → default idle tasks
	var st bridge.Status
	p.Master.Spawn("issuer", func(ctx *master.Ctx) {
		rep, err := p.Client.Call(ctx, bridge.CodeTC, 0, 0xffffffff)
		if err == nil {
			st = rep.Status
		}
	})
	p.RunUntilQuiescent(10000)
	if st != bridge.StatusOK {
		t.Fatalf("status %v", st)
	}
}

func TestCodeOfRoundTrip(t *testing.T) {
	for _, sym := range []string{"TC", "TD", "TS", "TR", "TCH", "TY"} {
		code, ok := bridge.CodeOf(sym)
		if !ok {
			t.Fatalf("no code for %s", sym)
		}
		if code.String() != sym {
			t.Fatalf("round trip %s -> %s", sym, code.String())
		}
		if _, ok := code.Service(); !ok {
			t.Fatalf("no service for %s", sym)
		}
	}
	if _, ok := bridge.CodeOf("XX"); ok {
		t.Fatal("unknown symbol accepted")
	}
	if bridge.CodeInvalid.String() == "" {
		t.Fatal("empty string for invalid code")
	}
}

func TestManyConcurrentCommitters(t *testing.T) {
	// Several master threads each drive their own logical task; the
	// master scheduler interleaves their commands.
	p := newP(t, Config{Factory: spinFactory})
	okCount := 0
	for i := 0; i < 4; i++ {
		logical := uint32(i)
		p.Master.Spawn("driver", func(ctx *master.Ctx) {
			for _, op := range []bridge.ServiceCode{bridge.CodeTC, bridge.CodeTS, bridge.CodeTR, bridge.CodeTD} {
				rep, err := p.Client.Call(ctx, op, logical, 0xffffffff)
				if err != nil {
					t.Errorf("driver %d: %v", logical, err)
					return
				}
				if rep.Status != bridge.StatusOK {
					t.Errorf("driver %d op %v: %v", logical, op, rep.Status)
					return
				}
				okCount++
			}
		})
	}
	p.RunUntilQuiescent(100000)
	if okCount != 16 {
		t.Fatalf("completed %d of 16 commands", okCount)
	}
}

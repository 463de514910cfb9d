package suite

import (
	"runtime"
	"strings"
	"testing"
)

// TestChessCellAllocationBudget bounds what one chess cell of the
// perfbench sweep-local mix allocates: producer-consumer at n=16, s=24,
// whose 128 schedules all run to the end, 49,152 remote commands in
// all. Per command that is about 3.4 objects and 530 bytes: the platform
// boot, the coroutine of each created task, and the committer's
// records. Per-trial result slices, a clock event per mailbox hop,
// per-notification closures and per-command coverage keys took it to
// about 10.4 objects and 800 bytes.
func TestChessCellAllocationBudget(t *testing.T) {
	s, err := Parse(strings.NewReader(`{"name":"chess-cell","seed":1,"trials":10,"keep_going":true,
"workloads":[{"name":"prodcons","items":10}],"ops":["roundrobin"],"points":[{"n":16,"s":24}],
"tools":[{"name":"chess","preemption_bound":1,"max_schedules":128}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	if _, err := ExecuteCell(s, cells[0]); err != nil { // warm the PFA cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rc, err := ExecuteCell(s, cells[0])
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	cmds := rc.Summary.TotalCommands
	if rc.Summary.Trials != 128 || cmds != 49152 || rc.Summary.Bugs != 0 {
		t.Fatalf("cell ran %d schedules, %d commands, %d bugs; want 128, 49152, 0", rc.Summary.Trials, cmds, rc.Summary.Bugs)
	}
	objs := float64(after.Mallocs-before.Mallocs) / float64(cmds)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cmds)
	t.Logf("%.2f objects, %.0f bytes per command", objs, bytes)
	if objs >= 5 || bytes >= 650 {
		t.Fatalf("the cell allocates %.2f objects and %.0f bytes per command, want under 5 and 650", objs, bytes)
	}
}

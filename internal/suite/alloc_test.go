package suite

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestChessCellAllocationBudget bounds what one chess cell of the
// perfbench sweep-local mix allocates: producer-consumer at n=16, s=24,
// whose 128 schedules all run to the end, 49,152 remote commands in
// all. Per command that is about 0.97 objects and 198 bytes (1.02 and
// 200 under -race): the platform boot, the committer's records, and a
// coroutine for each task a kernel has live at once. A coroutine for
// every created task took it to about 3.2 objects and 264 bytes;
// journal entries of 112 bytes in a doubling array, and the per-task
// sequences split again per schedule, to about 3.4 objects and 530
// bytes; per-trial result slices, a clock event per mailbox hop,
// per-notification closures and per-command coverage keys to about
// 10.4 objects and 800 bytes.
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
	if objs >= 1.1 || bytes >= 220 {
		t.Fatalf("the cell allocates %.2f objects and %.0f bytes per command, want under 1.1 and 220", objs, bytes)
	}
}

// sweepLocalSpec is perfbench's sweep-local matrix (perfbench/sweep.go)
// at spec seed 1, with its cells run one at a time so that the
// allocation count does not depend on the host's CPU count.
const sweepLocalSpec = `{"name":"sweep-local","seed":1,"trials":10,"keep_going":true,"cell_parallelism":1,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4,"gc_leak_every":2},{"name":"philosophers","rounds":200},
 {"name":"prodcons","items":10},{"name":"inversion","hog_bursts":2000,"misplace_priority_every":3}],
"ops":["roundrobin","random"],"points":[{"n":8,"s":16},{"n":16,"s":24}],
"tools":[{"name":"adaptive"},{"name":"adaptive","label":"adaptive-refine","refine":true,"alpha":0.5,"window":4},
 {"name":"contest","noise_p":0.2},{"name":"chess","preemption_bound":1,"max_schedules":128},{"name":"pct","depth":3}]}`

// The measured counts of one sweep, without and with -race (Go 1.24,
// linux/amd64). Before each kernel's ready queues took windows of one
// array and the workloads named tasks from tables, a sweep allocated
// 487,397 objects and 59.23 MB (514,636 and 62.39 MB under -race); the
// array adds a kilobyte per kernel, so bytes rose. Before the kernels
// reused task coroutines, and refused
// services, PFA draws and block pools stopped allocating, a sweep
// allocated 883,777 objects and 72.1 MB (917,195 and 77.5 MB under
// -race). Before the chain-walk deadlock check, the compact journal and
// the per-step diet, it allocated 1,082,345 objects and 118,847,528
// bytes (1,108,377 and 126,469,552 under -race).
const (
	sweepObjects     = 445_500
	sweepBytes       = 60_430_000
	sweepObjectsRace = 463_100
	sweepBytesRace   = 62_210_000
)

// TestSweepAllocationBudget bounds what one sweep of perfbench's
// sweep-local workload allocates, in objects and in bytes. Both counts
// repeat to within a hundred objects from sweep to sweep, while
// the sweep's wall time moves by tens of percent on a loaded host, so
// this count is the check that notices a per-command or per-check
// allocation creeping back in. The bounds are the measured counts plus
// 5%; sync.Pool drops items at random under the race detector, so a
// race build gets its own bounds.
func TestSweepAllocationBudget(t *testing.T) {
	s, err := Parse(strings.NewReader(sweepLocalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, nil); err != nil { // warm the PFA cache and the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(s, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	got := fmt.Sprintf("cells=%d cycles=%d commands=%d bugs=%d", tot.Cells, tot.TotalCycles, tot.TotalCommands, tot.Bugs)
	if want := "cells=56 cycles=48185826 commands=148007 bugs=1207"; got != want {
		t.Fatalf("sweep totals %s, want %s", got, want)
	}
	objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("one sweep allocates %d objects and %d bytes", objs, bytes)
	maxObjs, maxBytes := uint64(sweepObjects*105/100), uint64(sweepBytes*105/100)
	if raceEnabled {
		maxObjs, maxBytes = uint64(sweepObjectsRace*105/100), uint64(sweepBytesRace*105/100)
	}
	if objs > maxObjs || bytes > maxBytes {
		t.Fatalf("one sweep allocates %d objects and %d bytes, want at most %d and %d", objs, bytes, maxObjs, maxBytes)
	}
}

package detector

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/pcore"
)

// FindCycle is the reference implementation the detector's chain walk,
// waitCycle, is checked against. It finds a cycle in a general wait-for
// graph and returns it as a task sequence (first element repeated
// implicitly), or nil. Deterministic: nodes are explored in ascending id
// order.
func FindCycle(g map[pcore.TaskID][]pcore.TaskID) []pcore.TaskID {
	if len(g) == 0 {
		return nil
	}
	nodes := make([]pcore.TaskID, 0, len(g))
	for n := range g {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[pcore.TaskID]int{}
	var stack []pcore.TaskID
	var cycle []pcore.TaskID

	var dfs func(n pcore.TaskID) bool
	dfs = func(n pcore.TaskID) bool {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range g[n] {
			switch color[m] {
			case gray:
				// Found: extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == m {
						cycle = append([]pcore.TaskID{}, stack[i:]...)
						return true
					}
				}
				cycle = []pcore.TaskID{m, n}
				return true
			case white:
				if dfs(m) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// maxFuzzTasks is pCore's TCB table size, the largest graph the kernel
// can hand the detector.
const maxFuzzTasks = 16

// decodeWaitGraph reads one wait-for graph from fuzz input, in the two
// forms the detector and the reference take: byte i names the owner of
// task i+1 as a value mod maxFuzzTasks+1, where 0 means the task waits
// on nobody. An owner may itself wait on nobody: it is running, or
// blocked on something other than a mutex.
func decodeWaitGraph(data []byte) (owner []pcore.TaskID, g map[pcore.TaskID][]pcore.TaskID) {
	owner = make([]pcore.TaskID, maxFuzzTasks+1)
	g = map[pcore.TaskID][]pcore.TaskID{}
	for i, b := range data[:min(len(data), maxFuzzTasks)] {
		if o := pcore.TaskID(b) % (maxFuzzTasks + 1); o != pcore.InvalidTask {
			owner[i+1] = o
			g[pcore.TaskID(i+1)] = []pcore.TaskID{o}
		}
	}
	return owner, g
}

// FuzzWaitCycle checks that the chain walk returns exactly the cycle the
// reference depth-first search finds — the same tasks from the same
// first task, or nil for both — on any wait-for graph of up to 16
// tasks with at most one edge each.
func FuzzWaitCycle(f *testing.F) {
	// TestFindCycle's graphs.
	for _, seed := range [][]byte{
		{},                    // empty
		{2, 3},                // 1→2→3, acyclic
		{2, 1},                // 1⇄2
		{2, 3, 1},             // 1→2→3→1
		{0, 0, 0, 0, 0, 0, 7}, // self-loop on 7
		{2, 1, 0, 0, 6, 5},    // 5⇄6 and 1⇄2: the lower ids win
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		owner, g := decodeWaitGraph(data)
		got := waitCycle(owner, make([]pcore.TaskID, len(owner)))
		want := FindCycle(g)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("owners %v: chain walk found %v, reference %v", owner, got, want)
		}
	})
}

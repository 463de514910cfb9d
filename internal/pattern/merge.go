// Package pattern implements the paper's pattern merger: it extracts
// subsequences from per-task test patterns and systematically merges them
// into one interleaved final pattern. The merger "acts as a scheduler"
// over remote commands — the op parameter selects which concurrency
// scenario the merged pattern performs (§II-B, Algorithm 1 parameter op).
package pattern

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Op selects the merge strategy (the paper's op configuration parameter).
type Op int

const (
	// OpRoundRobin interleaves fixed-size subsequences from each source in
	// cyclic task order — the fair scheduler.
	OpRoundRobin Op = iota
	// OpRandom interleaves randomly sized subsequences from randomly chosen
	// sources, preserving each source's internal order — the ConTest-like
	// randomized scheduler.
	OpRandom
	// OpCyclic interleaves single commands in strict lockstep and rotates
	// the task order every round. Lockstep progress drives all tasks into
	// their resource-acquisition phases together, which is the scenario
	// that exposes cyclic-wait deadlocks (the paper's second test case
	// "forced these tasks to complete several sets of cyclic execution
	// sequences").
	OpCyclic
	// OpPriority drains sources with a weight proportional to their
	// priority: high-priority tasks issue commands in longer bursts,
	// modelling priority-skewed schedules that expose starvation.
	OpPriority
	// OpSequential concatenates the sources without interleaving — the
	// degenerate baseline that exercises no concurrency at all.
	OpSequential
)

// String returns the configuration-file name of the op.
func (op Op) String() string {
	switch op {
	case OpRoundRobin:
		return "roundrobin"
	case OpRandom:
		return "random"
	case OpCyclic:
		return "cyclic"
	case OpPriority:
		return "priority"
	case OpSequential:
		return "sequential"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// ParseOp converts a configuration-file name to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "roundrobin", "rr":
		return OpRoundRobin, nil
	case "random", "rand":
		return OpRandom, nil
	case "cyclic":
		return OpCyclic, nil
	case "priority", "prio":
		return OpPriority, nil
	case "sequential", "seq":
		return OpSequential, nil
	}
	return 0, fmt.Errorf("pattern: unknown merge op %q", s)
}

// Ops lists every merge strategy, for sweeps and ablation benches.
func Ops() []Op {
	return []Op{OpRoundRobin, OpRandom, OpCyclic, OpPriority, OpSequential}
}

// Entry is one command of the merged pattern: the Task index selects
// which per-task pattern (and hence which slave task / master thread) the
// Symbol belongs to, and Seq is the symbol's position within that source
// pattern — the SN the state records of Definition 2 refer to.
type Entry struct {
	Task   int
	Symbol string
	Seq    int
}

// Merged is the final interleaved test pattern of Algorithm 1 (M).
type Merged struct {
	Entries []Entry
	Op      Op
	Sources int
}

// Len returns the number of merged commands.
func (m Merged) Len() int { return len(m.Entries) }

// PerTask splits the merged pattern back into its per-task symbol
// sequences; by construction PerTask is the inverse of merging. A task
// with no entries gets nil. The sequences share one backing array, each
// capped at its own length, so appending to one never touches another.
func (m Merged) PerTask() [][]string {
	out := make([][]string, m.Sources)
	counts := make([]int, m.Sources)
	for _, e := range m.Entries {
		counts[e.Task]++
	}
	syms := make([]string, len(m.Entries))
	off := 0
	for task, n := range counts {
		if n > 0 {
			out[task] = syms[off : off : off+n]
			off += n
		}
	}
	for _, e := range m.Entries {
		out[e.Task] = append(out[e.Task], e.Symbol)
	}
	return out
}

// Options tunes the merger.
type Options struct {
	// Subseq is the subsequence length extracted per turn for OpRoundRobin
	// (default 1).
	Subseq int
	// MaxSubseq bounds the random subsequence length for OpRandom
	// (default 3).
	MaxSubseq int
	// Weights gives per-source weights for OpPriority; missing or
	// non-positive entries default to 1.
	Weights []float64
}

func (o Options) subseq() int {
	if o.Subseq <= 0 {
		return 1
	}
	return o.Subseq
}

func (o Options) maxSubseq() int {
	if o.MaxSubseq <= 0 {
		return 3
	}
	return o.MaxSubseq
}

// ErrNoSources is returned when Merge is called without source patterns.
var ErrNoSources = errors.New("pattern: no source patterns to merge")

// Merge interleaves the per-task symbol sequences into one final test
// pattern according to op. Every merge preserves the internal order of
// each source (the merged pattern is a true interleaving), consumes every
// symbol exactly once, and is deterministic given the RNG state.
func Merge(sources [][]string, op Op, rng *stats.RNG, opts Options) (Merged, error) {
	if len(sources) == 0 {
		return Merged{}, ErrNoSources
	}
	m := Merged{Op: op, Sources: len(sources)}
	total := 0
	for _, s := range sources {
		total += len(s)
	}
	m.Entries = make([]Entry, 0, total)
	pos := make([]int, len(sources))

	take := func(task, n int) {
		for i := 0; i < n && pos[task] < len(sources[task]); i++ {
			m.Entries = append(m.Entries, Entry{
				Task:   task,
				Symbol: sources[task][pos[task]],
				Seq:    pos[task],
			})
			pos[task]++
		}
	}
	remaining := func() int {
		n := 0
		for t := range sources {
			n += len(sources[t]) - pos[t]
		}
		return n
	}

	switch op {
	case OpSequential:
		for t := range sources {
			take(t, len(sources[t]))
		}

	case OpRoundRobin:
		chunk := opts.subseq()
		for remaining() > 0 {
			for t := range sources {
				take(t, chunk)
			}
		}

	case OpCyclic:
		rotation := 0
		for remaining() > 0 {
			n := len(sources)
			for i := 0; i < n; i++ {
				take((rotation+i)%n, 1)
			}
			rotation = (rotation + 1) % n
		}

	case OpRandom:
		if rng == nil {
			return Merged{}, errors.New("pattern: OpRandom requires an RNG")
		}
		for remaining() > 0 {
			// Pick among sources that still have symbols.
			live := make([]int, 0, len(sources))
			for t := range sources {
				if pos[t] < len(sources[t]) {
					live = append(live, t)
				}
			}
			t := live[rng.Intn(len(live))]
			take(t, 1+rng.Intn(opts.maxSubseq()))
		}

	case OpPriority:
		if rng == nil {
			return Merged{}, errors.New("pattern: OpPriority requires an RNG")
		}
		for remaining() > 0 {
			weights := make([]float64, len(sources))
			for t := range sources {
				if pos[t] >= len(sources[t]) {
					continue
				}
				w := 1.0
				if t < len(opts.Weights) && opts.Weights[t] > 0 {
					w = opts.Weights[t]
				}
				weights[t] = w
			}
			t, err := rng.Categorical(weights)
			if err != nil {
				return Merged{}, err
			}
			// Burst length grows with weight (at least 1).
			burst := 1
			if t < len(opts.Weights) && opts.Weights[t] > 1 {
				burst = int(opts.Weights[t])
			}
			take(t, burst)
		}

	default:
		return Merged{}, fmt.Errorf("pattern: unknown merge op %d", int(op))
	}

	if len(m.Entries) != total {
		return Merged{}, fmt.Errorf("pattern: merge lost symbols: %d of %d", len(m.Entries), total)
	}
	return m, nil
}

// Dedup removes sources with identical symbol sequences, returning the
// unique sources and the number removed. The paper flags replicated test
// patterns as a threat to effectiveness; the campaign runner calls this
// before merging when deduplication is enabled.
func Dedup(sources [][]string) (unique [][]string, removed int) {
	seen := map[string]bool{}
	for _, s := range sources {
		key := ""
		for i, sym := range s {
			if i > 0 {
				key += " "
			}
			key += sym
		}
		if seen[key] {
			removed++
			continue
		}
		seen[key] = true
		unique = append(unique, s)
	}
	return unique, removed
}

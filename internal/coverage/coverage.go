// Package coverage measures how much of the slave-service behaviour a
// test run exercised: which services were invoked, which PFA transitions
// were taken, and which cross-task interleaving pairs occurred. The
// paper names code-coverage analysis as "useful information for stress
// testing" (§II-A) and leaves fault-coverage verification as future
// work; this package provides the metrics the ablation benches report.
package coverage

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/nfa"
	"repro/internal/pfa"
)

// edge is an ordered pair of symbols: a transition (previous label,
// symbol) of one logical task, or an adjacent cross-task pair.
type edge struct{ from, to string }

// String renders a transition as "from>to".
func (e edge) String() string { return e.from + ">" + e.to }

// Tracker accumulates coverage over a stream of issued commands. It
// numbers each symbol at its first appearance, the PFA start label
// being number 0, and counts by number, so an observed command hashes
// no string.
type Tracker struct {
	syms        []string // syms[id] is the symbol numbered id
	services    []int    // calls by symbol number
	transitions []int    // (previous label, symbol) per logical task, at from*stride+to
	pairs       []bool   // adjacent cross-task symbol pairs seen, same layout
	stride      int      // row length of transitions and pairs, at least len(syms)
	pairCount   int      // distinct pairs seen
	lastSym     []int    // by logical task: previous symbol, the start label before its first
	prevTask    int
	prevSym     int
	hasPrev     bool
	commands    int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	const stride = 8 // room for a Table I alphabet and the start label
	t := &Tracker{stride: stride, transitions: make([]int, stride*stride), pairs: make([]bool, stride*stride)}
	t.Reset()
	return t
}

// Reset clears the tracker for reuse, keeping its storage.
func (t *Tracker) Reset() {
	t.syms = append(t.syms[:0], pfa.StartLabel)
	t.services = append(t.services[:0], 0)
	clear(t.transitions)
	clear(t.pairs)
	t.pairCount = 0
	t.lastSym = t.lastSym[:0]
	t.prevTask, t.prevSym, t.hasPrev = 0, 0, false
	t.commands = 0
}

// lookup returns the number of a symbol, or -1 if it was never seen.
func (t *Tracker) lookup(sym string) int {
	// A command alphabet has a handful of symbols, and a pattern's
	// symbols are the PFA's own strings, so equal ones compare by
	// pointer: a scan beats hashing.
	for id, s := range t.syms {
		if s == sym {
			return id
		}
	}
	return -1
}

// number returns the number of a symbol, numbering it if it is new.
func (t *Tracker) number(sym string) int {
	if id := t.lookup(sym); id >= 0 {
		return id
	}
	t.syms = append(t.syms, sym)
	t.services = append(t.services, 0)
	if len(t.syms) > t.stride {
		stride := 2 * t.stride
		t.transitions = regrid(t.transitions, t.stride, stride)
		t.pairs = regrid(t.pairs, t.stride, stride)
		t.stride = stride
	}
	return len(t.syms) - 1
}

// regrid copies a square matrix of row length from into a zeroed one
// of row length to.
func regrid[T any](m []T, from, to int) []T {
	grown := make([]T, to*to)
	for row := 0; row < from; row++ {
		copy(grown[row*to:], m[row*from:(row+1)*from])
	}
	return grown
}

// pool recycles trackers across trials. A campaign needs one tracker
// per trial; under the parallel campaign engine its allocation shows up
// on the hot path, and its tables are perfectly reusable.
var pool = sync.Pool{New: func() any { return NewTracker() }}

// GetTracker returns a cleared tracker from the pool. Release it with
// PutTracker once every value derived from it has been copied out
// (Summary and the float metrics are plain values, so summarize-then-put
// is safe).
func GetTracker() *Tracker { return pool.Get().(*Tracker) }

// PutTracker resets the tracker and returns it to the pool. The caller
// must not retain it.
func PutTracker(t *Tracker) {
	if t == nil {
		return
	}
	t.Reset()
	pool.Put(t)
}

// Observe records one issued command (logical task, service symbol) in
// merged-pattern order. task is a logical task index, from 0.
func (t *Tracker) Observe(task int, symbol string) {
	t.commands++
	sym := t.number(symbol)
	t.services[sym]++
	if task >= len(t.lastSym) {
		t.lastSym = append(t.lastSym, make([]int, task+1-len(t.lastSym))...)
	}
	t.transitions[t.lastSym[task]*t.stride+sym]++
	t.lastSym[task] = sym
	if t.hasPrev && t.prevTask != task {
		if p := &t.pairs[t.prevSym*t.stride+sym]; !*p {
			*p = true
			t.pairCount++
		}
	}
	t.prevTask, t.prevSym, t.hasPrev = task, sym, true
}

// transitionCount returns how often the transition (from, to) was
// observed.
func (t *Tracker) transitionCount(from, to string) int {
	f, s := t.lookup(from), t.lookup(to)
	if f < 0 || s < 0 {
		return 0
	}
	return t.transitions[f*t.stride+s]
}

// Commands returns the number of observed commands.
func (t *Tracker) Commands() int { return t.commands }

// ServiceCount returns how many times a service symbol was issued.
func (t *Tracker) ServiceCount(symbol string) int {
	if id := t.lookup(symbol); id >= 0 {
		return t.services[id]
	}
	return 0
}

// ServiceCoverage returns the fraction of the alphabet that was invoked
// at least once.
func (t *Tracker) ServiceCoverage(alphabet []string) float64 {
	if len(alphabet) == 0 {
		return 0
	}
	hit := 0
	for _, s := range alphabet {
		if t.ServiceCount(s) > 0 {
			hit++
		}
	}
	return float64(hit) / float64(len(alphabet))
}

// TransitionCoverage returns the fraction of the PFA's transitions
// (projected to label→symbol edges) that the command stream exercised.
// Because every PFA state is labelled by its entering service, a
// transition is identified by (previous service, next service).
func (t *Tracker) TransitionCoverage(p *pfa.PFA) float64 {
	// Several states can carry one label, so projected edges repeat.
	// The distinct ones are at most (|alphabet|+1)·|alphabet|, a few
	// dozen: a linear scan dedups them without building a set per call.
	var buf [64]edge
	edges := buf[:0]
	hit := 0
	for s := 0; s < p.NumStates(); s++ {
		label := p.Label(nfa.StateID(s))
		if label == "" {
			label = pfa.StartLabel
		}
		for _, tr := range p.Transitions(nfa.StateID(s)) {
			e := edge{label, tr.Symbol}
			if slices.Contains(edges, e) {
				continue
			}
			edges = append(edges, e)
			if t.transitionCount(e.from, e.to) > 0 {
				hit++
			}
		}
	}
	if len(edges) == 0 {
		return 0
	}
	return float64(hit) / float64(len(edges))
}

// PairCount returns the number of distinct cross-task adjacent service
// pairs observed — a proxy for interleaving coverage.
func (t *Tracker) PairCount() int { return t.pairCount }

// Summary is a compact coverage result for reports.
type Summary struct {
	Commands    int
	Services    float64 // fraction of alphabet hit
	Transitions float64 // fraction of PFA transitions hit
	Pairs       int     // distinct cross-task pairs
}

// Summarize computes the summary against the PFA that generated the
// patterns.
func (t *Tracker) Summarize(p *pfa.PFA) Summary {
	return Summary{
		Commands:    t.commands,
		Services:    t.ServiceCoverage(p.Alphabet()),
		Transitions: t.TransitionCoverage(p),
		Pairs:       t.PairCount(),
	}
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("commands=%d service-cov=%.2f transition-cov=%.2f pairs=%d",
		s.Commands, s.Services, s.Transitions, s.Pairs)
}

// TopTransitions returns the n most frequent transitions as "edge count"
// strings, for diagnostics.
func (t *Tracker) TopTransitions(n int) []string {
	type kv struct {
		k string
		v int
	}
	var all []kv
	for from := range t.syms {
		for to := range t.syms {
			if v := t.transitions[from*t.stride+to]; v > 0 {
				all = append(all, kv{edge{t.syms[from], t.syms[to]}.String(), v})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf("%s %d", all[i].k, all[i].v)
	}
	return out
}

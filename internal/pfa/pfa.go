// Package pfa implements the probabilistic finite-state automaton of the
// paper's Definition 1 — a six-tuple (Q, Σ, δ, q0, F, P) with the
// per-state normalization constraint of equation (1) — together with the
// pattern-generation procedure of Algorithm 2, analysis utilities
// (string probability, expected symbol frequencies, entropy rate) and
// probability-distribution learning from profiled traces.
//
// A PFA is constructed by attaching a Distribution to a symbol-labelled
// automaton, normally the merged Glushkov automaton of the user's service
// regular expression. Every transition into a state emits that state's
// service symbol, so the Distribution conditions the next service on the
// previously executed one, exactly as in the paper's Figure 5.
package pfa

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/nfa"
	"repro/internal/regex"
	"repro/internal/stats"
)

// StartLabel is the Distribution key that addresses the initial state q0,
// which has no entering service symbol.
const StartLabel = "^"

// Distribution assigns conditional next-symbol probabilities: the outer
// key is the label of the current state (the service whose execution led
// here, or StartLabel for q0); the inner map gives the probability of
// each next service. Probabilities for a state should sum to 1 but are
// renormalized over the legal transitions during construction.
type Distribution map[string]map[string]float64

// Clone returns a deep copy of the distribution.
func (d Distribution) Clone() Distribution {
	out := make(Distribution, len(d))
	for k, m := range d {
		mm := make(map[string]float64, len(m))
		for s, p := range m {
			mm[s] = p
		}
		out[k] = mm
	}
	return out
}

// Uniform returns a distribution that makes every legal transition out of
// every state equally likely on the given automaton.
func Uniform(a *nfa.Automaton) Distribution {
	d := Distribution{}
	for s := 0; s < a.NumStates(); s++ {
		syms := a.OutSymbols(nfa.StateID(s))
		if len(syms) == 0 {
			continue
		}
		label := a.Labels[s]
		if label == "" {
			label = StartLabel
		}
		if d[label] == nil {
			d[label] = map[string]float64{}
		}
		for _, sym := range syms {
			d[label][sym] = 1.0 / float64(len(syms))
		}
	}
	return d
}

// Transition is one probabilistic transition (q, a, q') with P(q, a, q').
type Transition struct {
	From   nfa.StateID
	Symbol string
	To     nfa.StateID
	Prob   float64
}

// PFA is the probabilistic finite-state automaton. Immutable after
// construction; safe for concurrent pattern generation with independent
// RNGs.
type PFA struct {
	auto  *nfa.Automaton
	trans [][]Transition // outgoing transitions per state, probability-annotated
}

// ErrNotNormalized is wrapped by Validate errors for eq. (1) violations.
var ErrNotNormalized = errors.New("pfa: transition probabilities violate equation (1)")

// epsilon tolerance for probability normalization checks.
const normTol = 1e-9

// New attaches the distribution to the automaton and validates equation
// (1). The automaton must be epsilon-free (use the merged Glushkov form).
// Transitions whose symbol is absent from the state's conditional
// distribution receive probability zero and are pruned; a state whose
// entire out-set would be pruned is an error, because generation from it
// would be impossible while the regular expression says it should
// continue.
func New(a *nfa.Automaton, d Distribution) (*PFA, error) {
	if a.HasEpsilon() {
		return nil, errors.New("pfa: automaton has epsilon transitions; merge/determinize first")
	}
	p := &PFA{auto: a, trans: make([][]Transition, a.NumStates())}
	for s := 0; s < a.NumStates(); s++ {
		edges := a.Edges[s]
		if len(edges) == 0 {
			continue
		}
		label := a.Labels[s]
		if label == "" {
			label = StartLabel
		}
		cond := d[label]
		if cond == nil {
			return nil, fmt.Errorf("pfa: no distribution for state %d (label %q)", s, label)
		}
		// Sum the weights of symbols actually available here. A symbol with
		// several nondeterministic targets splits its mass uniformly.
		bySym := map[string][]nfa.Edge{}
		for _, e := range edges {
			bySym[e.Symbol] = append(bySym[e.Symbol], e)
		}
		total := 0.0
		syms := make([]string, 0, len(bySym))
		for sym := range bySym {
			syms = append(syms, sym)
			w := cond[sym]
			if w < 0 {
				return nil, fmt.Errorf("pfa: negative probability %v for %s after %q", w, sym, label)
			}
			total += w
		}
		if total <= 0 {
			return nil, fmt.Errorf("pfa: state %d (label %q) has no positive-probability transition", s, label)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			w := cond[sym] / total
			if w == 0 {
				continue // pruned transition
			}
			targets := bySym[sym]
			for _, e := range targets {
				p.trans[s] = append(p.trans[s], Transition{
					From:   nfa.StateID(s),
					Symbol: sym,
					To:     e.To,
					Prob:   w / float64(len(targets)),
				})
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// FromRegex parses the service regular expression, builds the merged
// Glushkov automaton and attaches the distribution. It is the one-call
// path corresponding to Algorithm 2's ConvertToNFA + ConstructPFA steps.
func FromRegex(re string, d Distribution) (*PFA, error) {
	compileCount.Add(1)
	node, err := regex.Parse(re)
	if err != nil {
		return nil, err
	}
	a := nfa.MergeEquivalent(nfa.Glushkov(node))
	if d == nil {
		d = Uniform(a)
	}
	return New(a, d)
}

// Validate checks Definition 1's equation (1): for every state with
// outgoing transitions the probabilities are in (0, 1] and sum to 1.
func (p *PFA) Validate() error {
	for s := range p.trans {
		if len(p.trans[s]) == 0 {
			continue
		}
		sum := 0.0
		for _, t := range p.trans[s] {
			if t.Prob <= 0 || t.Prob > 1 {
				return fmt.Errorf("%w: P(%d,%s,%d)=%v out of (0,1]",
					ErrNotNormalized, t.From, t.Symbol, t.To, t.Prob)
			}
			sum += t.Prob
		}
		if math.Abs(sum-1) > normTol {
			return fmt.Errorf("%w: state %d sums to %v", ErrNotNormalized, s, sum)
		}
	}
	return nil
}

// Automaton returns the underlying automaton (shared, do not mutate).
func (p *PFA) Automaton() *nfa.Automaton { return p.auto }

// Start returns the initial state q0.
func (p *PFA) Start() nfa.StateID { return p.auto.Start }

// NumStates returns |Q|.
func (p *PFA) NumStates() int { return p.auto.NumStates() }

// Alphabet returns Σ, sorted.
func (p *PFA) Alphabet() []string { return p.auto.Alphabet() }

// IsFinal reports whether q ∈ F.
func (p *PFA) IsFinal(q nfa.StateID) bool { return p.auto.Accept[q] }

// Label returns the service symbol emitted on entry to q ("" for q0).
func (p *PFA) Label(q nfa.StateID) string { return p.auto.Labels[q] }

// Transitions returns the outgoing probabilistic transitions of q
// (shared slice, do not mutate).
func (p *PFA) Transitions(q nfa.StateID) []Transition { return p.trans[q] }

// NumTransitions returns |δ| restricted to positive-probability edges.
func (p *PFA) NumTransitions() int {
	n := 0
	for _, ts := range p.trans {
		n += len(ts)
	}
	return n
}

// MakeChoice resolves the nondeterministic choice at state q by sampling
// one outgoing transition according to P, as in Algorithm 2. It returns
// an error if q has no outgoing transitions.
func (p *PFA) MakeChoice(q nfa.StateID, rng *stats.RNG) (Transition, error) {
	ts := p.trans[q]
	switch len(ts) {
	case 0:
		return Transition{}, fmt.Errorf("pfa: state %d has no outgoing transitions", q)
	case 1:
		return ts[0], nil
	}
	idx, err := rng.CategoricalFunc(len(ts), func(i int) float64 { return ts[i].Prob })
	if err != nil {
		return Transition{}, err
	}
	return ts[idx], nil
}

// Prob returns P(q, a, q'), or 0 if the transition is not in δ.
func (p *PFA) Prob(q nfa.StateID, sym string, to nfa.StateID) float64 {
	for _, t := range p.trans[q] {
		if t.Symbol == sym && t.To == to {
			return t.Prob
		}
	}
	return 0
}

// Dot renders the PFA with probability-annotated edges in Graphviz format.
func (p *PFA) Dot(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n  rankdir=LR;\n", name)
	fmt.Fprintf(&sb, "  _start [shape=point];\n  _start -> q%d;\n", p.auto.Start)
	for s := 0; s < p.NumStates(); s++ {
		shape := "circle"
		if p.auto.Accept[s] {
			shape = "doublecircle"
		}
		label := fmt.Sprintf("q%d", s)
		if p.auto.Labels[s] != "" {
			label = p.auto.Labels[s]
		}
		fmt.Fprintf(&sb, "  q%d [shape=%s,label=%q];\n", s, shape, label)
	}
	for s := range p.trans {
		for _, t := range p.trans[s] {
			fmt.Fprintf(&sb, "  q%d -> q%d [label=\"%s (%.2g)\"];\n", t.From, t.To, t.Symbol, t.Prob)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

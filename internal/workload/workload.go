// Package workload is the pluggable registry of slave workloads: the
// named scenarios a suite cell stress-tests (quicksort, dining
// philosophers, producer/consumer, ...). Spec is the declarative form
// that appears in suite matrices — and in cell-identity keys, so its
// field set and tags are part of the on-disk cache contract. The
// registry resolves a spec's name to a per-trial factory constructor;
// every layer (suite validation, cell execution, the CLI, replay)
// routes workload names through it, so adding a scenario is one
// Register call, immediately usable everywhere.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/committee"
	"repro/internal/jsonenc"
	"repro/internal/pcore"
)

// Knob defaults, applied by WithDefaults so an omitted knob and its
// explicit default produce the same spec — and the same cell identity
// keys. The CLI flags default to the same constants.
const (
	// DefaultRounds is the philosophers' eating-round budget.
	DefaultRounds = 100000
	// DefaultItems is the producer/consumer item count.
	DefaultItems = 10
	// DefaultHogBursts is the priority-inversion hog's burst count.
	DefaultHogBursts = 100000
)

// Spec names a slave workload plus its kernel configuration, including
// the fault plan that seeds the bugs campaigns hunt. Like the tool
// spec, it is a closed struct hashed into cell-identity keys: fields
// are only appended (always omitempty), never reordered or retagged.
type Spec struct {
	// Name selects the workload in the registry.
	Name string `json:"name"`
	// Seed is the workload's own data seed (quicksort input).
	Seed uint64 `json:"seed,omitempty"`
	// Rounds is the philosophers' eating-round budget.
	Rounds int `json:"rounds,omitempty"`
	// Items is the producer/consumer item count.
	Items int `json:"items,omitempty"`
	// HogBursts is the priority-inversion hog's burst count.
	HogBursts int `json:"hog_bursts,omitempty"`

	// Kernel knobs.
	GCEvery   int `json:"gc_every,omitempty"`
	Quantum   int `json:"quantum,omitempty"`
	MaxTasks  int `json:"max_tasks,omitempty"`
	StackSize int `json:"stack_size,omitempty"`

	// Fault plan.
	GCLeakEvery           int `json:"gc_leak_every,omitempty"`
	DropResumeEvery       int `json:"drop_resume_every,omitempty"`
	MisplacePriorityEvery int `json:"misplace_priority_every,omitempty"`
}

// AppendMembers writes the members of s into w's open object, in
// exactly the bytes json.Marshal writes for them under the tags above.
// Cell keys and spec digests hash these bytes, so a knob added to Spec
// must be added here too; internal/suite's
// TestCellKeyBytesWriteEveryField, FuzzCellKeyBytes and FuzzParseSpec
// hold the two equal.
func (s *Spec) AppendMembers(w *jsonenc.Writer) {
	w.String("name", s.Name)
	if s.Seed != 0 {
		w.Uint("seed", s.Seed)
	}
	for _, k := range [...]struct {
		name string
		v    int
	}{
		{"rounds", s.Rounds}, {"items", s.Items}, {"hog_bursts", s.HogBursts},
		{"gc_every", s.GCEvery}, {"quantum", s.Quantum}, {"max_tasks", s.MaxTasks},
		{"stack_size", s.StackSize}, {"gc_leak_every", s.GCLeakEvery},
		{"drop_resume_every", s.DropResumeEvery},
		{"misplace_priority_every", s.MisplacePriorityEvery},
	} {
		if k.v != 0 {
			w.Int(k.name, int64(k.v))
		}
	}
}

// WithDefaults normalizes workload knobs to their execution defaults.
// The suite layer applies it before keying cells, so omitted and
// explicit-default specs share identities.
func (s Spec) WithDefaults() Spec {
	if s.Rounds <= 0 {
		s.Rounds = DefaultRounds
	}
	if s.Items <= 0 {
		s.Items = DefaultItems
	}
	if s.HogBursts <= 0 {
		s.HogBursts = DefaultHogBursts
	}
	return s
}

// Kernel builds the slave configuration, faults armed.
func (s Spec) Kernel() pcore.Config {
	k := pcore.Config{
		MaxTasks:  s.MaxTasks,
		StackSize: s.StackSize,
		GCEvery:   s.GCEvery,
		Faults: pcore.FaultPlan{
			GCLeakEvery:           s.GCLeakEvery,
			DropResumeEvery:       s.DropResumeEvery,
			MisplacePriorityEvery: s.MisplacePriorityEvery,
		},
	}
	if s.Quantum > 0 {
		k.Quantum = clock.Cycles(s.Quantum)
	}
	return k
}

// NewFactory resolves the spec through the registry into a per-trial
// factory constructor. Every trial gets a fresh factory so workloads
// with shared mutable state stay independent across trials and across
// parallel workers. n sizes task-count-dependent workloads
// (philosophers).
func (s Spec) NewFactory(n int) (func() committee.Factory, error) {
	regMu.RLock()
	w, ok := registry[s.Name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", s.Name, NamesHint())
	}
	return w.build(s.WithDefaults(), n), nil
}

// Builder constructs the per-trial factory constructor for a defaulted
// spec. n is the cell's task count.
type Builder func(s Spec, n int) func() committee.Factory

// Option tunes a registration.
type Option func(*entry)

// DataSeeded marks a workload as consuming Spec.Seed as its data seed
// (quicksort's input permutation). Callers that map a shared seed flag
// onto workload specs (the CLI's one-cell-suite path) consult it so
// seed-insensitive workloads are not needlessly re-keyed.
func DataSeeded() Option {
	return func(e *entry) { e.dataSeed = true }
}

type entry struct {
	name     string
	doc      string
	build    Builder
	dataSeed bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register adds a workload under name. It panics on a duplicate name:
// registration happens in init functions, and two workloads fighting
// over one name would corrupt cell identities.
func Register(name, doc string, b Builder, opts ...Option) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	e := entry{name: name, doc: doc, build: b}
	for _, opt := range opts {
		opt(&e)
	}
	registry[name] = e
}

// UsesDataSeed reports whether the named workload consumes Spec.Seed
// (registered with DataSeeded). Unknown names report false.
func UsesDataSeed(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name].dataSeed
}

// Names lists the registered workload names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NamesHint renders the registered names as the "(want a|b|c)" hint
// validation errors carry.
func NamesHint() string {
	return strings.Join(Names(), "|")
}

// Doc returns the one-line description of a registered workload.
func Doc(name string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name].doc
}

package suite

import (
	"fmt"
	"io"
	"sync"
)

// Plan is a spec resolved once: defaulted, validated, expanded into its
// run plan and digested. A hub resolves each distinct submitted spec
// into one Plan and shares it with every job that submits it and
// everything that serves those jobs, so no layer repeats that work. A
// Plan is never modified once built; its cell keys are computed on
// first use.
type Plan struct {
	// spec is its own allocation, so a caller that keeps only Spec()
	// does not keep the expanded cells alive.
	spec   *Spec
	cells  []Cell
	index  map[string]int // cell ID → position in cells
	digest string
	keys   *planKeys // shared with the WithCellParallelism copies
}

// planKeys holds a plan's cell keys, computed once.
type planKeys struct {
	once sync.Once
	keys []string
}

// NewPlan resolves a copy of spec; the caller's spec is not modified.
// Hand-built specs get the same defaults and checks as parsed ones.
func NewPlan(spec *Spec) (*Plan, error) {
	s := *spec
	return resolve(&s)
}

// ParsePlan is Parse followed by NewPlan, validating the spec once.
func ParsePlan(r io.Reader) (*Plan, error) {
	s, err := decode(r)
	if err != nil {
		return nil, err
	}
	return resolve(s)
}

// resolve defaults, validates, expands and digests s in place.
func resolve(s *Spec) (*Plan, error) {
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cells, index := s.expand()
	if len(cells) == 0 {
		return nil, fmt.Errorf("suite: spec %q expands to zero cells", s.Name)
	}
	return &Plan{spec: s, cells: cells, index: index, digest: s.Digest(), keys: new(planKeys)}, nil
}

// Spec is the defaulted, validated spec. Callers must not modify it.
func (p *Plan) Spec() *Spec { return p.spec }

// Cells is the expanded run plan, in plan order. Callers must not
// modify it.
func (p *Plan) Cells() []Cell { return p.cells }

// CellIndex returns the position in Cells of the cell with the given
// ID.
func (p *Plan) CellIndex(id string) (int, bool) {
	i, ok := p.index[id]
	return i, ok
}

// Digest is the spec's Digest.
func (p *Plan) Digest() string { return p.digest }

// Keys returns every cell's CellKey, in plan order, computing them on
// the first call. Callers must not modify it.
func (p *Plan) Keys() []string {
	p.keys.once.Do(func() {
		keys := make([]string, len(p.cells))
		for i := range p.cells {
			keys[i] = p.spec.CellKey(p.cells[i])
		}
		p.keys.keys = keys
	})
	return p.keys.keys
}

// WithCellParallelism returns the plan with its spec's cell_parallelism
// set to n. Digests and cell keys exclude the field, so the copy shares
// the cells, the index, the digest and the keys.
func (p *Plan) WithCellParallelism(n int) *Plan {
	s := *p.spec
	s.CellParallelism = n
	q := *p
	q.spec = &s
	return &q
}

// PlanCacheBudget is what one plan cache may hold, in estimated bytes
// (Plan.Weight). A hub caches the plans of the spec bodies it was
// submitted, keyed by their SHA-256, and a fleet worker the plans of
// the specs it leased cells of, keyed by digest; both are an
// internal/lru cache of this budget.
const PlanCacheBudget = 8 << 20

// planBytes and planCellBytes are the heap a resolved plan holds past
// its source's length, per plan and per cell, rounded up from what
// TestPlanWeightCoversItsHeap measures: about 760 bytes per plan, and
// 450–490 per cell with its ID, its index entry and its cell key.
const (
	planBytes     = 1024
	planCellBytes = 512
)

// Weight estimates the bytes p holds once its keys are computed, given
// the length of the JSON it was resolved from: that length, for the
// decoded spec, plus a measured size per plan and per cell.
func (p *Plan) Weight(srcLen int) int {
	return srcLen + planBytes + len(p.cells)*planCellBytes
}

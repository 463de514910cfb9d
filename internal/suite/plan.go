package suite

import (
	"fmt"
	"io"
)

// Plan is a spec resolved once: defaulted, validated, expanded into its
// run plan and digested. A hub resolves each submitted spec into one
// Plan and shares it with everything that serves the job, so no layer
// repeats that work. A Plan is never modified once built.
type Plan struct {
	// spec is its own allocation, so a caller that keeps only Spec()
	// does not keep the expanded cells alive.
	spec   *Spec
	cells  []Cell
	digest string
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
	cells := s.Expand()
	if len(cells) == 0 {
		return nil, fmt.Errorf("suite: spec %q expands to zero cells", s.Name)
	}
	return &Plan{spec: s, cells: cells, digest: s.Digest()}, nil
}

// Spec is the defaulted, validated spec. Callers must not modify it.
func (p *Plan) Spec() *Spec { return p.spec }

// Cells is the expanded run plan, in plan order. Callers must not
// modify it.
func (p *Plan) Cells() []Cell { return p.cells }

// Digest is the spec's Digest.
func (p *Plan) Digest() string { return p.digest }

// WithCellParallelism returns the plan with its spec's cell_parallelism
// set to n. Digests and cell keys exclude the field, so the copy shares
// the cells and the digest.
func (p *Plan) WithCellParallelism(n int) *Plan {
	s := *p.spec
	s.CellParallelism = n
	return &Plan{spec: &s, cells: p.cells, digest: p.digest}
}

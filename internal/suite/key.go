// Cell identity: the canonical content address of one cell's result.
// Every knob that can change what the cell computes — and every field
// the cached report.Cell carries back out (names, labels, IDs) — is
// folded into one hash, so the content-addressed store can serve a
// cell computed by any entry point (ptest run, ptest suite, a ptestd
// job) to any other. Knobs that cannot change results (parallelism,
// the spec's display name) are deliberately excluded: overlapping
// sweeps with different names share cells.
package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"sync"

	"repro/internal/jsonenc"
	"repro/internal/report"
)

// cellKeyEnvelope is the serialization the key hashes: appendCellKey
// writes its json.Marshal bytes directly, and the key tests marshal it
// as the reference. Field set and json tags are part of the on-disk
// cache contract: changing either (or the report schema) re-keys the
// world, which is exactly the safe failure mode — stale entries become
// unreachable instead of wrong.
type cellKeyEnvelope struct {
	Schema     int          `json:"schema"`
	RE         string       `json:"re"`
	Trials     int          `json:"trials"`
	KeepGoing  bool         `json:"keep_going"`
	MaxSteps   int          `json:"max_steps"`
	CommandGap int          `json:"command_gap"`
	Dedup      bool         `json:"dedup"`
	Workload   WorkloadSpec `json:"workload"`
	Op         string       `json:"op"`
	N          int          `json:"n"`
	S          int          `json:"s"`
	PD         PDSpec       `json:"pd"`
	Tool       ToolSpec     `json:"tool"`
	// Seed is the cell's derived seed, which already folds in the
	// spec-level base seed — two specs with different base seeds never
	// share a key.
	Seed uint64 `json:"seed"`
}

// CellKey returns the content address of c's result under this spec:
// the SHA-256 of the canonical JSON of the cell's full execution
// configuration. Call it on a defaulted spec (Run does) so implicit
// and explicit defaults key identically.
func (s *Spec) CellKey(c Cell) string {
	bp := keyBufs.Get().(*[]byte)
	data, err := appendCellKey((*bp)[:0], s, &c)
	if err != nil {
		// Only a NaN or an infinite float in an inline distribution or a
		// tool knob gets here, which no JSON spec can carry. Keep a
		// deterministic fallback rather than a panic in the hot path.
		data = append(data[:0], c.ID...)
	}
	sum := sha256.Sum256(data)
	*bp = data
	keyBufs.Put(bp)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// keyBufs recycles the buffers CellKey serializes into: a hub computes
// a key for every cell of every job it serves.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendCellKey appends the bytes CellKey hashes: exactly what
// json.Marshal writes for the cell's cellKeyEnvelope, built without
// reflection. The workload, PD and tool specs encode their members
// beside their tags; FuzzCellKeyBytes and
// TestCellKeyBytesWriteEveryField hold the whole equal to json.Marshal,
// so a field added to the envelope or PDSpec must be added here too.
func appendCellKey(dst []byte, s *Spec, c *Cell) ([]byte, error) {
	w := jsonenc.Writer{B: dst}
	w.BeginObject()
	w.Int("schema", report.SchemaVersion)
	w.String("re", s.RE)
	w.Int("trials", int64(s.Trials))
	w.Bool("keep_going", s.KeepGoing)
	w.Int("max_steps", int64(s.MaxSteps))
	w.Int("command_gap", int64(s.CommandGap))
	w.Bool("dedup", s.Dedup)

	w.Object("workload")
	c.Workload.AppendMembers(&w)
	w.EndObject()

	w.String("op", c.OpName)
	w.Int("n", int64(c.Point.N))
	w.Int("s", int64(c.Point.S))

	w.Object("pd")
	c.PD.appendMembers(&w)
	w.EndObject()

	w.Object("tool")
	c.Tool.AppendMembers(&w)
	w.EndObject()

	w.Uint("seed", c.Seed)
	w.EndObject()
	return w.B, w.Err()
}

// appendMembers writes the members of p into w's open object, in
// exactly the bytes json.Marshal writes for them. Distribution keys are
// sorted as encoding/json sorts map keys, so the serialization is
// canonical.
func (p *PDSpec) appendMembers(w *jsonenc.Writer) {
	w.String("name", p.Name)
	if p.Builtin != "" {
		w.String("builtin", p.Builtin)
	}
	if len(p.Dist) == 0 {
		return
	}
	w.Object("dist")
	for _, from := range slices.Sorted(maps.Keys(p.Dist)) {
		cond := p.Dist[from]
		if cond == nil {
			w.Null(from)
			continue
		}
		w.Object(from)
		for _, sym := range slices.Sorted(maps.Keys(cond)) {
			w.Float(sym, cond[sym])
		}
		w.EndObject()
	}
	w.EndObject()
}

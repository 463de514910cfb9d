// CellStore is the seam between the memoizing consumers (suite runs,
// ptestd, the CLI) and a concrete result-store implementation.
// Everything above this package depends on the interface. One
// implementation ships: the local segment-log Store. A hub owns its
// store, and its job API is the only way in: a client that wants the
// hub's cells submits a job (`ptest suite -hub-url`). A facade user's
// own implementation slots in without touching the suite runner, the
// daemon, or the CLI.
package store

import "repro/internal/report"

// CellStore answers content-addressed cell lookups. Keys are the
// canonical cell-identity hashes the suite layer computes
// (suite.Spec.CellKey); the contract is exactly the one consumers
// already relied on from *Store:
//
//   - Get returns the stored cell and true on a hit. A miss — including
//     any internal failure the implementation degrades over (an
//     unreadable record) — returns false: the caller then recomputes
//     the cell, which is always correct.
//   - Put stores the cell under key. Re-putting a known key is a no-op
//     (content addressing guarantees the value is identical). A non-nil
//     error means the write may not persist, never that the computed
//     cell is wrong — callers log and continue. A store whose Put is not
//     durable on return implements Flusher.
//   - Stats and Lifetime are telemetry: session counters and cumulative
//     history. Neither is consulted for correctness.
//   - Close releases resources; Put after Close errors.
//
// Implementations must be safe for concurrent use by the suite worker
// pool and the daemon's job workers.
type CellStore interface {
	Get(key string) (report.Cell, bool)
	Put(key string, cell report.Cell) error
	Stats() Stats
	Lifetime() Counters
	Close() error
}

// Compactor is the optional garbage-collection face of a CellStore:
// stores whose representation accumulates dead bytes (the local
// segment log's torn tails and superseded records) implement it; a
// pure pass-through does not. Callers type-assert:
//
//	if c, ok := cs.(store.Compactor); ok { c.Compact() }
type Compactor interface {
	// Compact rewrites the store down to its live entries and reports
	// what was reclaimed. Every key readable before is readable after
	// (minus what the store's configured GC policy expired); cell keys
	// and cell payload bytes are unchanged (bit-stability is the
	// store's contract with the warm-replay tests), though v1 record
	// envelopes migrate to v2.
	Compact() (CompactResult, error)
}

// PolicyCompactor is the retention face of a compacting store: one
// pass under an explicit GCPolicy, overriding the configured one.
type PolicyCompactor interface {
	CompactPolicy(p GCPolicy) (CompactResult, error)
}

// BatchPutter is the optional batched-write face of a CellStore. The
// local Store commits the whole batch under one group fsync. Per-entry
// semantics are exactly Put's.
type BatchPutter interface {
	PutBatch(entries []CellEntry) error
}

// Flusher is the optional write-back face of a CellStore whose puts are
// not durable on return: the local Store appends them without an
// fsync. The suite runner flushes at job end, so a run's puts become
// durable together before the run reports; Close implies a final flush
// too.
type Flusher interface {
	Flush() error
}

// CompactResult describes one compaction pass.
type CompactResult struct {
	// SegmentsBefore/After count segment files; BytesBefore/After their
	// summed on-disk size.
	SegmentsBefore int   `json:"segments_before"`
	SegmentsAfter  int   `json:"segments_after"`
	BytesBefore    int64 `json:"bytes_before"`
	BytesAfter     int64 `json:"bytes_after"`
	// ReclaimedBytes = BytesBefore - BytesAfter.
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// LiveEntries is the number of records rewritten — the store's
	// entire readable content.
	LiveEntries int `json:"live_entries"`
	// ExpiredEntries/ExpiredBytes count what the GC policy discarded
	// (record bytes, headers included); zero under the zero policy.
	ExpiredEntries int   `json:"expired_entries,omitempty"`
	ExpiredBytes   int64 `json:"expired_bytes,omitempty"`
	// MigratedRecords counts v1 envelopes rewritten as v2.
	MigratedRecords int `json:"migrated_records,omitempty"`
}

// Interface conformance pinned at compile time.
var (
	_ CellStore       = (*Store)(nil)
	_ Compactor       = (*Store)(nil)
	_ PolicyCompactor = (*Store)(nil)
	_ BatchPutter     = (*Store)(nil)
	_ Flusher         = (*Store)(nil)
)

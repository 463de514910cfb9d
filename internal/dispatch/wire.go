// Wire types of the dispatch protocol — what a fleet worker and its
// hub exchange over /api/v1/workers. Both halves of the protocol live
// in this package (the Dispatcher serves it, the Worker speaks it), so
// the shapes are pinned in one place and internal/server only mounts
// handlers around them.
package dispatch

import "repro/internal/report"

// RegisterRequest announces a worker to the hub.
type RegisterRequest struct {
	// Name is a human-readable worker label (hostname, usually). Not
	// unique — the hub assigns the identity.
	Name string `json:"name"`
}

// Registration is the hub's answer: the assigned worker identity plus
// the timing contract the worker must honor to stay live.
type Registration struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long a granted lease stays valid; a worker that
	// cannot finish a cell inside it should expect a duplicate.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// WorkerTTLMS is the liveness window: no lease:batch call for this
	// long and the hub declares the worker dead and reassigns its
	// leases.
	WorkerTTLMS int64 `json:"worker_ttl_ms"`
	// HeartbeatMS is the longest the hub suggests a worker go without a
	// lease:batch call (a third of the TTL); a worker whose pipeline is
	// full makes an empty call at this cadence to stay live.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// Grant is one leased cell: everything a worker needs to execute it
// deterministically and report back.
type Grant struct {
	LeaseID string `json:"lease_id"`
	// JobID names the best-ranked job waiting on the cell; the worker
	// fetches that job's spec on a plan-cache miss.
	JobID  string `json:"job_id"`
	CellID string `json:"cell_id"`
	// Key is the cell's CellKey, the unit the hub executes once for
	// every job waiting on it; the completion echoes it.
	Key string `json:"key"`
	// SpecDigest keys the worker's compiled-plan cache. Grants never
	// carry the spec itself: a worker whose plan cache misses the digest
	// fetches the spec once per job via GET /api/v1/jobs/{id}/spec
	// instead of re-receiving and re-parsing it per cell.
	SpecDigest string `json:"spec_digest"`
	// TTLMS is the lease's remaining validity at grant time.
	TTLMS int64 `json:"ttl_ms"`
	// Stolen marks a work-stealing duplicate of a straggler's lease —
	// informational; execution is identical either way.
	Stolen bool `json:"stolen,omitempty"`
}

// CompleteRequest reports one executed cell. It carries the unit's
// cell key alongside the lease so a completion that outlived its lease
// (expiry raced the result) still lands — re-execution is
// bit-identical, so any completion of an outstanding cell is correct.
// JobID and CellID echo the grant's, for tracing.
type CompleteRequest struct {
	LeaseID string      `json:"lease_id"`
	JobID   string      `json:"job_id"`
	CellID  string      `json:"cell_id"`
	Key     string      `json:"key"`
	Cell    report.Cell `json:"cell"`
}

// CompleteStatus is the hub's disposition of a completion.
type CompleteStatus string

const (
	// CompleteAccepted: the result resolved the cell.
	CompleteAccepted CompleteStatus = "accepted"
	// CompleteDuplicate: another execution (retry, steal, or a hub
	// slot) already resolved the cell; the results are bit-identical by
	// construction, so the duplicate is dropped, not conflicting.
	CompleteDuplicate CompleteStatus = "duplicate"
	// CompleteOrphan: the hub no longer tracks the cell (its jobs
	// finished or were cancelled, or it never existed). Harmless.
	CompleteOrphan CompleteStatus = "orphan"
)

// LeaseBatchRequest is the dispatch wire's only round trip: one
// request both returns finished work and asks for more, so a fleet
// worker pays one round trip per batch of cells instead of two per
// cell. A single lease is a batch of one.
//
//	POST /api/v1/workers/{id}/lease:batch
type LeaseBatchRequest struct {
	// Max is how many new grants the worker wants (its free pipeline
	// capacity). 0 is a pure completion flush: piggybacked results, no
	// new work.
	Max int `json:"max"`
	// Completions are finished cells riding along with the poll. Each is
	// settled independently (accepted / duplicate / orphan) — a batch is
	// never all-or-nothing.
	Completions []CompleteRequest `json:"completions,omitempty"`
}

// LeaseBatchResponse answers a lease:batch call.
type LeaseBatchResponse struct {
	// Grants are the newly leased cells, at most Max, in grant order of
	// each cell's best waiting job: higher job priority first, then jobs
	// in the order they first missed a cell, then plan order within a
	// job — so a job's cells arrive as
	// contiguous runs of its plan when they can and hub-side reassembly
	// stays a cheap ordered merge. Each grant carries its own lease with
	// its own deadline; expiry, steal and duplicate resolution stay
	// per-cell.
	Grants []Grant `json:"grants,omitempty"`
	// Acks dispose of the request's Completions, index-aligned. Every
	// status is final (duplicates and orphans are harmless), so a worker
	// never needs to resend an acked completion.
	Acks []CompleteStatus `json:"acks,omitempty"`
}

// WorkerInfo is the fleet-membership view `ptest client workers`
// renders.
type WorkerInfo struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Live         bool   `json:"live"`
	RegisteredAt string `json:"registered_at"`
	// LastSeenAgoMS is the age of the last lease:batch call at render
	// time.
	LastSeenAgoMS int64 `json:"last_seen_ago_ms"`
	// InFlight counts leases currently held; Completed counts cells this
	// worker resolved over its registration's lifetime.
	InFlight  int    `json:"in_flight"`
	Completed uint64 `json:"completed"`
	// LastBatch is how many cells the worker's most recent lease:batch
	// call was granted — the live batch depth. Zero until the worker's
	// first grant.
	LastBatch int `json:"last_batch,omitempty"`
}

// Metrics is a snapshot of the dispatcher's counters — served under
// /metrics and asserted by the chaos tests ("the expired lease was
// retried").
type Metrics struct {
	WorkersRegistered    uint64 `json:"workers_registered"`
	WorkersLive          int    `json:"workers_live"`
	LeasesGranted        uint64 `json:"leases_granted"`
	LeasesExpired        uint64 `json:"leases_expired"`
	LeasesStolen         uint64 `json:"leases_stolen"`
	LeaseRetries         uint64 `json:"lease_retries"`
	RemoteCompletions    uint64 `json:"remote_completions"`
	DuplicateCompletions uint64 `json:"duplicate_completions"`
	OrphanCompletions    uint64 `json:"orphan_completions"`
	// LeaseBatchCalls counts lease:batch round trips that granted cells
	// or settled completions (idle empty polls are not counted);
	// LeaseBatchCells counts the cells those calls granted —
	// cells/calls is the live batching factor the wire achieves.
	// PiggybackedCompletions counts completions delivered inside
	// lease:batch requests, duplicates and orphans included.
	LeaseBatchCalls        uint64 `json:"lease_batch_calls"`
	LeaseBatchCells        uint64 `json:"lease_batch_cells"`
	PiggybackedCompletions uint64 `json:"piggybacked_completions"`
	// LocalCells counts cells the hub slots executed: zero live workers
	// or an exhausted attempt budget — the graceful-degradation paths.
	// LocalCells + RemoteCompletions is how many executions the hub's
	// jobs cost, which jobs that share a cell key share.
	LocalCells uint64 `json:"local_cells"`
	// CellsPending gauges cells waiting at the hub for a grant (retry
	// backoff included): the fleet's backlog.
	CellsPending int `json:"cells_pending"`
	// LeasesByTenant gauges outstanding leases per submitting tenant —
	// who is holding fleet capacity right now. Nil when no leases are
	// outstanding.
	LeasesByTenant map[string]int `json:"leases_by_tenant,omitempty"`
}

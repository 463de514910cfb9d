// Package eventlog is the fleet's append-only structured event log:
// a bounded in-memory ring of typed events with monotonic sequence
// ids, optionally persisted as JSONL to a sink. One Recorder is shared
// by every runtime layer — server job lifecycle, suite cell execution,
// dispatch leases and worker membership, store traffic and compaction,
// tenant admission decisions — so a single stream reconstructs what
// the fleet did and in what order. A nil *Recorder is a valid no-op:
// every emit site guards itself, so the zero-value configuration pays
// nothing and changes nothing.
package eventlog

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Event type names. Dot-separated hierarchy: a Filter matching "lease"
// matches every lease.* event. Keep these stable — they are the wire
// vocabulary of /api/v1/events and the CLI's -type flag.
const (
	TypeJobSubmitted   = "job.submitted"
	TypeJobStarted     = "job.started"
	TypeJobDone        = "job.done"
	TypeJobFailed      = "job.failed"
	TypeJobInterrupted = "job.interrupted"
	TypeJobCancelled   = "job.cancelled"

	TypeCellStart    = "cell.start"
	TypeCellCached   = "cell.cached"
	TypeCellExecuted = "cell.executed"
	TypeCellFailed   = "cell.failed"

	TypeLeaseGranted     = "lease.granted"
	TypeLeaseStolen      = "lease.stolen"
	TypeLeaseExpired     = "lease.expired"
	TypeLeaseRetry       = "lease.retry"
	TypeLeaseLocalized   = "lease.localized"
	TypeLeaseCompleted   = "lease.completed"
	TypeLeaseDupResolved = "lease.dup-resolved"
	TypeLeaseOrphan      = "lease.orphan"
	TypeLeaseBatch       = "lease.batch"

	TypeWorkerRegistered   = "worker.registered"
	TypeWorkerDeregistered = "worker.deregistered"
	TypeWorkerReaped       = "worker.reaped"

	TypeStoreHit          = "store.hit"
	TypeStoreMiss         = "store.miss"
	TypeStorePut          = "store.put"
	TypeStoreCompactStart = "store.compact.start"
	TypeStoreCompactDone  = "store.compact.done"
	TypeStoreCompactFail  = "store.compact.failed"

	TypeTenantThrottled = "tenant.throttled"
	TypeTenantDeferred  = "tenant.deferred"
	TypeTenantRejected  = "tenant.rejected"
)

// Event is one structured log entry. Seq and Time are stamped by the
// Recorder at emit; every other field is the emitter's. All dimension
// fields are omitempty so each event type carries only what it has.
type Event struct {
	// Seq is the recorder-scoped monotonic sequence id, starting at 1.
	// SSE resume (Last-Event-ID) and ?since= filters key on it.
	Seq uint64 `json:"seq"`
	// Time is the emit wall time, RFC3339Nano in UTC.
	Time string `json:"time"`
	// Type is one of the Type* constants above.
	Type string `json:"type"`

	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Worker string `json:"worker,omitempty"`
	Cell   string `json:"cell,omitempty"`
	Lease  string `json:"lease,omitempty"`
	Tool   string `json:"tool,omitempty"`
	// Key is a content-addressed store key (store.* events).
	Key string `json:"key,omitempty"`
	// DurMS is an operation duration in milliseconds where one is
	// meaningful (cell execution, job wall time, compaction).
	DurMS float64 `json:"dur_ms,omitempty"`
	// Detail is a short free-text qualifier: an error message, a store
	// layer ("mem", "disk"), a retry attempt count.
	Detail string `json:"detail,omitempty"`
}

// Filter selects a subset of the stream. Zero value matches everything.
type Filter struct {
	// Type matches exactly, or as a dot-hierarchy prefix: "lease"
	// matches "lease.granted". Empty matches all types.
	Type string
	// Job and Tenant match exactly when non-empty.
	Job    string
	Tenant string
}

// Match reports whether e passes the filter.
func (f Filter) Match(e Event) bool {
	if f.Type != "" && e.Type != f.Type && !strings.HasPrefix(e.Type, f.Type+".") {
		return false
	}
	if f.Job != "" && e.Job != f.Job {
		return false
	}
	if f.Tenant != "" && e.Tenant != f.Tenant {
		return false
	}
	return true
}

// Config tunes a Recorder.
type Config struct {
	// Capacity bounds the in-memory ring; once full the oldest event is
	// dropped per emit (and counted). Zero or negative defaults to 4096.
	Capacity int
	// Clock stamps event times. Nil uses the system wall clock.
	Clock clock.Wall
	// Sink, when non-nil, receives every event as one JSON line at emit
	// time — the persistent tail of the bounded ring. A write error
	// degrades the recorder to memory-only (first error kept in Stats);
	// emission never fails.
	Sink io.Writer
	// Replay pre-loads the ring with events from a previous run (a JSONL
	// sink read back via ReadJSONL). Only the newest Capacity events are
	// kept, and the sequence counter resumes past the highest replayed
	// Seq — so a watcher's Last-Event-ID from before a restart stays
	// meaningful and new events never reuse an old id. Replayed events
	// keep their original Seq and Time and are NOT re-written to Sink.
	Replay []Event
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Emitted counts every event ever emitted (ring + dropped).
	Emitted uint64
	// Dropped counts events evicted from the ring by overflow — they
	// remain in the JSONL sink, if any, but are gone from /api/v1/events.
	Dropped uint64
	// ByType counts emissions per event type.
	ByType map[string]uint64
	// SinkErr is the first sink write error, if the JSONL tail degraded.
	SinkErr string
}

// Recorder is the append-only bounded event log. All methods are safe
// for concurrent use and safe on a nil receiver (no-ops), so emit
// sites never branch. The internal mutex is a leaf: Emit never calls
// out (the sink write happens under it, but sinks are plain writers),
// so holding any subsystem lock while emitting cannot deadlock.
type Recorder struct {
	mu      sync.Mutex
	clock   clock.Wall
	sink    io.Writer
	sinkErr error

	ring  []Event // fixed capacity, wrap-around
	start int     // index of oldest
	count int

	seq     uint64
	dropped uint64
	byType  map[string]uint64
	updated chan struct{} // closed+replaced on every emit
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	r := &Recorder{
		clock:   cfg.Clock,
		sink:    cfg.Sink,
		ring:    make([]Event, cfg.Capacity),
		byType:  map[string]uint64{},
		updated: make(chan struct{}),
	}
	replay := cfg.Replay
	if len(replay) > cfg.Capacity {
		r.dropped = uint64(len(replay) - cfg.Capacity)
		replay = replay[len(replay)-cfg.Capacity:]
	}
	for _, e := range replay {
		r.ring[r.count] = e
		r.count++
		r.byType[e.Type]++
		if e.Seq > r.seq {
			r.seq = e.Seq
		}
	}
	return r
}

// ReadJSONL reads a JSONL event stream (a previous run's Sink file)
// back into events for Config.Replay. Blank lines, lines that fail to
// parse, and lines without a sequence id are skipped — a torn final
// line from a crashed process must not poison the replay. Read errors
// end the scan with whatever parsed cleanly before them.
func ReadJSONL(rd io.Reader) []Event {
	var evs []Event
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Seq == 0 {
			continue
		}
		evs = append(evs, e)
	}
	return evs
}

// Emit stamps e with the next sequence id and the current time, appends
// it to the ring (dropping the oldest on overflow), writes the JSONL
// tail, and wakes watchers. Safe on a nil Recorder.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq
	e.Time = r.clock.Now().UTC().Format(time.RFC3339Nano)
	if r.count == len(r.ring) {
		r.start = (r.start + 1) % len(r.ring)
		r.count--
		r.dropped++
	}
	r.ring[(r.start+r.count)%len(r.ring)] = e
	r.count++
	r.byType[e.Type]++
	if r.sink != nil && r.sinkErr == nil {
		if b, err := json.Marshal(e); err == nil {
			if _, werr := r.sink.Write(append(b, '\n')); werr != nil {
				r.sinkErr = werr
			}
		}
	}
	close(r.updated)
	r.updated = make(chan struct{})
}

// Snapshot returns the ring's events with Seq > since that pass f, in
// sequence order, plus the latest sequence id and the overflow-drop
// count. Safe on a nil Recorder (returns zeros).
func (r *Recorder) Snapshot(since uint64, f Filter) (evs []Event, lastSeq, dropped uint64) {
	if r == nil {
		return nil, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.count; i++ {
		e := r.ring[(r.start+i)%len(r.ring)]
		if e.Seq > since && f.Match(e) {
			evs = append(evs, e)
		}
	}
	return evs, r.seq, r.dropped
}

// After is Snapshot plus the current generation channel, which closes
// on the next emit — the replay-then-follow primitive SSE handlers
// loop on. Returns a nil channel on a nil Recorder.
func (r *Recorder) After(since uint64, f Filter) ([]Event, <-chan struct{}) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var evs []Event
	for i := 0; i < r.count; i++ {
		e := r.ring[(r.start+i)%len(r.ring)]
		if e.Seq > since && f.Match(e) {
			evs = append(evs, e)
		}
	}
	return evs, r.updated
}

// LastSeq returns the most recently assigned sequence id (0 if none,
// or on a nil Recorder).
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Stats snapshots the counters. Safe on a nil Recorder (zero Stats).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	by := make(map[string]uint64, len(r.byType))
	for k, v := range r.byType {
		by[k] = v
	}
	s := Stats{Emitted: r.seq, Dropped: r.dropped, ByType: by}
	if r.sinkErr != nil {
		s.SinkErr = r.sinkErr.Error()
	}
	return s
}

// Scoped is a Recorder handle pre-bound to a job/tenant context: the
// suite runner emits cell events through it without knowing whose job
// it is running. Empty Job/Tenant on the event are filled from the
// scope; a zero Scoped (nil R) is a no-op.
type Scoped struct {
	R      *Recorder
	Job    string
	Tenant string
}

// Emit fills the scope's job/tenant into e where unset and records it.
func (s Scoped) Emit(e Event) {
	if s.R == nil {
		return
	}
	if e.Job == "" {
		e.Job = s.Job
	}
	if e.Tenant == "" {
		e.Tenant = s.Tenant
	}
	s.R.Emit(e)
}

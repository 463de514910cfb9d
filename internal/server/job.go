// Job state: one submitted suite spec moving through queued → running
// → done|failed|cancelled, with a plan-order progress log that any
// number of SSE watchers replay-then-follow.
package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/jsonenc"
	"repro/internal/report"
	"repro/internal/suite"
	"repro/internal/tenant"
)

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status can no longer change.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobInfo is the wire representation of a job — what list/status
// endpoints return and what the done SSE event carries.
type JobInfo struct {
	ID         string `json:"id"`
	Suite      string `json:"suite"`
	SpecDigest string `json:"spec_digest"`
	// Tenant is the submitting tenant's name; omitted in anonymous mode
	// so pre-tenancy daemons and clients agree on the wire shape.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the effective queue priority: the tenant role's band
	// plus the clamped client adjustment.
	Priority int       `json:"priority"`
	Status   JobStatus `json:"status"`
	// TotalCells is the expanded plan size; DoneCells counts completed
	// (streamed) cells — the progress fraction.
	TotalCells int `json:"total_cells"`
	DoneCells  int `json:"done_cells"`
	// StoreHits / CellsExecuted split DoneCells into served-from-cache
	// and store misses (final values arrive with the report). A miss is
	// computed once per hub: jobs that miss the same cell at once share
	// its execution, and each counts it.
	StoreHits     uint64 `json:"store_hits,omitempty"`
	CellsExecuted uint64 `json:"cells_executed,omitempty"`
	// Interrupted marks a cancelled job whose partial report was kept.
	Interrupted bool   `json:"interrupted,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// appendJobInfo appends info in exactly the bytes json.Marshal writes
// for it or, with indent, the bytes writeJSON writes (json.Encoder's
// two-space layout and its trailing newline), without reflection. A hub
// writes it for every submit and every finished job's done frame.
// TestJobInfoEncoding holds it to both, so a field added to JobInfo
// must be added here too.
func appendJobInfo(dst []byte, info *JobInfo, indent bool) []byte {
	w := jsonenc.Writer{B: dst, Indent: indent}
	w.BeginObject()
	w.String("id", info.ID)
	w.String("suite", info.Suite)
	w.String("spec_digest", info.SpecDigest)
	if info.Tenant != "" {
		w.String("tenant", info.Tenant)
	}
	w.Int("priority", int64(info.Priority))
	w.String("status", string(info.Status))
	w.Int("total_cells", int64(info.TotalCells))
	w.Int("done_cells", int64(info.DoneCells))
	if info.StoreHits != 0 {
		w.Uint("store_hits", info.StoreHits)
	}
	if info.CellsExecuted != 0 {
		w.Uint("cells_executed", info.CellsExecuted)
	}
	if info.Interrupted {
		w.Bool("interrupted", true)
	}
	if info.Error != "" {
		w.String("error", info.Error)
	}
	w.String("submitted_at", info.SubmittedAt)
	if info.StartedAt != "" {
		w.String("started_at", info.StartedAt)
	}
	if info.FinishedAt != "" {
		w.String("finished_at", info.FinishedAt)
	}
	w.EndObject()
	if indent {
		w.B = append(w.B, '\n')
	}
	return w.B
}

// Job is the server-side state. All fields behind mu; watchers block
// on the generation channel, which watch makes when a watcher needs one
// and the next mutation closes.
type Job struct {
	mu   sync.Mutex
	info JobInfo
	// spec is the defaulted spec the spec route serves for the job's
	// whole life; plan, from the hub's plan cache, serves the run and is
	// dropped once the job is terminal, so a retained job does not keep
	// the expanded cells of a plan the cache has let go.
	spec    *suite.Spec
	plan    *suite.Plan
	tenant  tenant.Tenant // immutable after newJob
	rep     *report.Report
	lines   [][]byte           // completed cells as JSONL, plan order; read-only once appended
	updated chan struct{}      // nil until watch hands one out
	cancel  context.CancelFunc // non-nil while running
}

func newJob(id string, plan *suite.Plan, priority int, t tenant.Tenant) *Job {
	wireTenant := t.Name
	if t == tenant.Anonymous {
		wireTenant = "" // omitted: anonymous daemons keep the old shape
	}
	return &Job{
		info: JobInfo{
			ID:          id,
			Suite:       plan.Spec().Name,
			SpecDigest:  plan.Digest(),
			Tenant:      wireTenant,
			Priority:    priority,
			Status:      JobQueued,
			TotalCells:  len(plan.Cells()),
			SubmittedAt: time.Now().UTC().Format(time.RFC3339),
		},
		spec:   plan.Spec(),
		plan:   plan,
		tenant: t,
	}
}

// notifyLocked wakes every watcher. A mutation that no watcher waits
// for makes and closes nothing. Callers hold mu.
func (j *Job) notifyLocked() {
	if j.updated != nil {
		close(j.updated)
		j.updated = nil
	}
}

// Info snapshots the wire representation.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// status reads the lifecycle state alone, without copying the info.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info.Status
}

// Report returns the finished (or partial, when cancelled) report.
func (j *Job) Report() *report.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rep
}

// start transitions queued → running and returns the plan to run. Nil
// when the job was cancelled while queued — the worker skips it.
func (j *Job) start(cancel context.CancelFunc) *suite.Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.Status != JobQueued {
		return nil
	}
	j.info.Status = JobRunning
	j.info.StartedAt = time.Now().UTC().Format(time.RFC3339)
	j.cancel = cancel
	j.notifyLocked()
	return j.plan
}

// finish records the terminal state and the report (which may be a
// partial, Interrupted one).
func (j *Job) finish(status JobStatus, rep *report.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.Status.Terminal() {
		return
	}
	j.info.Status = status
	j.info.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	j.cancel = nil
	j.plan = nil
	if rep != nil {
		j.rep = rep
		j.info.StoreHits = rep.StoreHits
		j.info.CellsExecuted = rep.StoreMisses
		j.info.Interrupted = rep.Interrupted
		j.info.DoneCells = len(rep.Cells)
	}
	if err != nil {
		j.info.Error = err.Error()
	}
	j.notifyLocked()
}

// requestCancel cancels a queued job immediately or signals a running
// one to stop at its next cell boundary. ok is false when already
// terminal; wasQueued tells the caller which path ran (a queued
// cancellation is terminal here, a running one becomes terminal when
// the worker observes the interrupt).
func (j *Job) requestCancel() (ok, wasQueued bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.info.Status == JobQueued:
		j.info.Status = JobCancelled
		j.info.FinishedAt = time.Now().UTC().Format(time.RFC3339)
		j.plan = nil
		j.notifyLocked()
		return true, true
	case j.info.Status == JobRunning:
		if j.cancel != nil {
			j.cancel() // the worker observes ErrInterrupted and finishes the job
		}
		return true, false
	}
	return false, false
}

// appendCell records one completed cell's JSONL line, in plan order.
// The job keeps line itself, which no one writes to again.
func (j *Job) appendCell(line []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lines = append(j.lines, line)
	j.info.DoneCells = len(j.lines)
	j.notifyLocked()
}

// watch returns the lines past from, the channel the next mutation
// closes, the latest info, and whether the job is terminal. A terminal
// job changes no more, so its channel is nil. The lines are the job's
// own: appends go past their end, and no line is written to again.
func (j *Job) watch(from int) (lines [][]byte, upd <-chan struct{}, info JobInfo, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.lines) {
		lines = j.lines[from:len(j.lines):len(j.lines)]
	}
	terminal = j.info.Status.Terminal()
	if !terminal && j.updated == nil {
		j.updated = make(chan struct{})
	}
	return lines, j.updated, j.info, terminal
}

// jsonlSplitter adapts the suite runner's JSONL stream (io.Writer) to
// per-cell appendCell calls. The ordered emitter serializes writes and
// writes each cell as one whole line (JSON escapes any newline inside
// it), so anything else is refused, which fails the job rather than
// storing a torn line.
type jsonlSplitter struct{ j *Job }

var errNotOneLine = errors.New("server: JSONL write is not exactly one line")

func (w jsonlSplitter) Write(p []byte) (int, error) {
	n := len(p)
	if n == 0 || bytes.IndexByte(p, '\n') != n-1 {
		return 0, errNotOneLine
	}
	w.j.appendCell(bytes.Clone(p[:n-1]))
	return n, nil
}

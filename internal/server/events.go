// Fleet-wide observability endpoints: GET /api/v1/events serves the
// append-only event log as a JSON snapshot or an SSE follow stream
// (Last-Event-ID resume, same contract as the per-job stream), and
// GET /healthz answers probes with a small JSON readiness summary —
// the one source the dashboard, load balancers, and `ptest client`
// all share.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/eventlog"
)

// EventsPage is the snapshot answer of GET /api/v1/events.
type EventsPage struct {
	// Events is the filtered ring content, sequence-ascending.
	Events []eventlog.Event `json:"events"`
	// LastSeq is the newest sequence id the recorder has assigned —
	// pass it back as ?since= (or Last-Event-ID) to read only newer.
	LastSeq uint64 `json:"last_seq"`
	// Dropped counts events the bounded ring has evicted; a non-zero
	// delta between polls means the tail outran the reader.
	Dropped uint64 `json:"dropped"`
}

// handleFleetEvents serves the event log. Query parameters: type=, job=,
// tenant= filter (type matches dot-hierarchy prefixes: type=lease
// matches lease.granted); since=N skips events with Seq <= N;
// follow=1 switches to SSE replay-then-follow, where the standard
// Last-Event-ID header overrides since on reconnect. Event ids are the
// recorder's sequence numbers.
func (s *Server) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		api.WriteError(w, http.StatusNotFound, "event log disabled (run with -events)")
		return
	}
	q := r.URL.Query()
	f := eventlog.Filter{Type: q.Get("type"), Job: q.Get("job"), Tenant: q.Get("tenant")}
	since, ok := cursor(w, "since", q.Get("since"), 0)
	if ok {
		since, ok = cursor(w, "Last-Event-ID", r.Header.Get("Last-Event-ID"), since)
	}
	if !ok {
		return
	}

	if q.Get("follow") == "" {
		evs, last, dropped := s.events.Snapshot(since, f)
		if evs == nil {
			evs = []eventlog.Event{}
		}
		writeJSON(w, http.StatusOK, EventsPage{Events: evs, LastSeq: last, Dropped: dropped})
		return
	}
	s.serveSSE(w, r, func() ([]api.Frame, <-chan struct{}, bool) {
		evs, upd := s.events.After(since, f)
		frames := make([]api.Frame, 0, len(evs))
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			frames = append(frames, api.Frame{ID: e.Seq, Data: data})
			since = e.Seq
		}
		return frames, upd, false
	})
}

// cursor parses a stream position (since= or Last-Event-ID, the resume
// cursor of both event streams), returning def when v is empty. A
// malformed one is answered with a 400 and ok=false.
func cursor(w http.ResponseWriter, name, v string, def uint64) (uint64, bool) {
	if v == "" {
		return def, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad %s %q", name, v)
		return 0, false
	}
	return n, true
}

// sseKeepalive is how long a stream may stay idle before a comment line
// keeps proxies from cutting it.
const sseKeepalive = 15 * time.Second

// serveSSE is the loop behind both event streams. next returns the
// frames past the stream's own cursor, the channel that signals more,
// and whether the stream has ended; serveSSE writes the frames and
// parks on that channel until the stream ends or the client leaves.
// When the hub drains it writes what the stream holds one last time
// and ends it. Nothing is flushed ahead of frames already in hand, and
// an ended stream is not flushed at all: returning sends the headers
// and every frame together, so the stream of a finished job goes out
// in one write while it fits the server's 4 KB conn buffer.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, next func() ([]api.Frame, <-chan struct{}, bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	idle := time.NewTimer(sseKeepalive)
	defer idle.Stop()
	for draining, live := false, false; ; {
		frames, upd, end := next()
		for _, f := range frames {
			if api.WriteFrame(w, f) != nil {
				return
			}
		}
		if end || draining {
			return
		}
		if len(frames) > 0 || !live {
			// Push the frames out before parking, and on an idle start the
			// headers, so clients (and proxies with header timeouts) see
			// the stream live.
			fl.Flush()
			live = true
		}
		idle.Reset(sseKeepalive)
		select {
		case <-upd:
		case <-idle.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			draining = true
		}
	}
}

// Health is the JSON body of GET /healthz: enough for a readiness
// probe to gate on and for the dashboard header to render, without
// parsing /metrics.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Version string `json:"version,omitempty"`
	Commit  string `json:"commit,omitempty"`
	UptimeS int64  `json:"uptime_s"`
	// QueueDepth and JobsRunning summarize the pool; WorkersLive the
	// fleet (0 means the hub slots execute every cell, not unhealthy).
	QueueDepth  int `json:"queue_depth"`
	JobsRunning int `json:"jobs_running"`
	WorkersLive int `json:"workers_live"`
	// StoreDegraded is true when the cell store lost its disk layer —
	// results stay correct, caching does not persist.
	StoreDegraded bool `json:"store_degraded"`
	// Events reports whether the event log is enabled; LastEventSeq is
	// its newest sequence id (a cheap liveness cursor for tailers).
	Events       bool   `json:"events"`
	LastEventSeq uint64 `json:"last_event_seq,omitempty"`
}

// buildVersion resolves the module version and VCS revision once.
var buildVersion = func() (version, commit string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	version = bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			commit = kv.Value
			if len(commit) > 12 {
				commit = commit[:12]
			}
		}
	}
	return version, commit
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	version, commit := buildVersion()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.mu.Lock()
	var running int
	for _, j := range s.jobs {
		if j.status() == JobRunning {
			running++
		}
	}
	s.mu.Unlock()
	degraded := false
	if dg, ok := s.store.(interface{ Degraded() bool }); ok {
		degraded = dg.Degraded()
	}
	writeJSON(w, http.StatusOK, Health{
		Status:        status,
		Version:       version,
		Commit:        commit,
		UptimeS:       int64(time.Since(s.started).Seconds()),
		QueueDepth:    s.queue.Depth(),
		JobsRunning:   running,
		WorkersLive:   len(s.disp.Workers()),
		StoreDegraded: degraded,
		Events:        s.events != nil,
		LastEventSeq:  s.events.LastSeq(),
	})
}

// Client-side consumers of the observability endpoints: Health probes
// /healthz, Events snapshots the fleet event log, and TailEvents
// follows it over SSE with the same Last-Event-ID reconnect discipline
// as Watch — a dropped stream resumes right after the last sequence
// the caller saw, so the callback observes each event exactly once.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/api"
	"repro/internal/eventlog"
)

// EventsFilter narrows what /api/v1/events returns. Zero value means
// everything. Type matches exactly or as a dot-hierarchy prefix
// ("lease" matches lease.granted); Since skips events with Seq <= N.
type EventsFilter struct {
	Type   string
	Job    string
	Tenant string
	Since  uint64
}

// query renders the filter as URL query parameters.
func (f EventsFilter) query() string {
	q := url.Values{}
	if f.Type != "" {
		q.Set("type", f.Type)
	}
	if f.Job != "" {
		q.Set("job", f.Job)
	}
	if f.Tenant != "" {
		q.Set("tenant", f.Tenant)
	}
	if f.Since > 0 {
		q.Set("since", strconv.FormatUint(f.Since, 10))
	}
	return q.Encode()
}

// Health fetches the daemon's /healthz summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	return call[Health](ctx, c, http.MethodGet, "/healthz", nil, true)
}

// Events fetches one snapshot of the fleet event log. Feed the returned
// LastSeq back as f.Since to poll only newer events.
func (c *Client) Events(ctx context.Context, f EventsFilter) (EventsPage, error) {
	path := "/api/v1/events"
	if q := f.query(); q != "" {
		path += "?" + q
	}
	return call[EventsPage](ctx, c, http.MethodGet, path, nil, true)
}

// TailEvents follows the fleet event log, invoking fn for every event
// matching the filter — first the buffered backlog past f.Since, then
// live ones as subsystems emit them. It returns only on a fatal server
// refusal (log disabled, bad credentials), on context cancellation
// (ctx.Err()), or after the stream drops more than the retry budget
// allows in a row; any received event resets that budget.
func (c *Client) TailEvents(ctx context.Context, f EventsFilter, fn func(eventlog.Event)) error {
	since := f.Since
	f.Since = 0 // Last-Event-ID carries the cursor
	path := "/api/v1/events?follow=1"
	if q := f.query(); q != "" {
		path += "&" + q
	}
	return c.follow(ctx, path, since, func(fr api.Frame) (bool, error) {
		var e eventlog.Event
		if err := json.Unmarshal(fr.Data, &e); err != nil {
			return false, fmt.Errorf("client: bad fleet event: %w", err)
		}
		if fn != nil {
			fn(e)
		}
		return false, nil
	})
}

// Client is the Go consumer of the ptestd HTTP API — what `ptest
// client …` and the public facade drive. One method per endpoint plus
// Watch, which consumes the SSE stream: replayed plan-order cells, then
// live ones, then the terminal JobInfo.
//
// The client is built for an imperfect network and a shared hub:
// idempotent calls retry what internal/api classes as transient
// (no answer, 429, 500, 502, 503, 504) with exponential backoff, a
// queue-full 503 or a rate-limit 429 waits exactly the server's
// Retry-After, and a dropped Watch stream reconnects with Last-Event-ID
// so the caller sees every cell exactly once. Refusals decode into
// *APIError; branch on them with errors.Is(err, ErrUnauthorized |
// ErrRateLimited | ErrQuotaExceeded). Credentials come from WithAPIKey
// — a 401 fails immediately, never retried.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/dispatch"
	"repro/internal/report"
)

// Client talks to one ptestd base URL (e.g. "http://127.0.0.1:8321").
type Client struct {
	conn api.Conn

	// retries is how many times an idempotent call re-attempts after a
	// transient failure; retryBase seeds the exponential backoff between
	// attempts. wall abstracts the waits for tests.
	retries   int
	retryBase time.Duration
	wall      clock.Wall
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithAPIKey sends the key as `Authorization: Bearer <key>` on every
// request — required against a hub running with -auth-keys.
func WithAPIKey(key string) ClientOption {
	return func(c *Client) { c.conn.Key = key }
}

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, proxies, TLS). The default has no timeout — Watch streams
// indefinitely; bound individual calls with contexts.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.conn.HC = hc
		}
	}
}

// WithRetryPolicy sets how many times idempotent calls re-attempt after
// transient failures and the base delay the exponential backoff grows
// from. retries 0 means one attempt, no retries.
func WithRetryPolicy(retries int, base time.Duration) ClientOption {
	return func(c *Client) {
		if retries >= 0 {
			c.retries = retries
		}
		if base > 0 {
			c.retryBase = base
		}
	}
}

// NewClient builds a client for one ptestd base URL. With no options it
// behaves exactly as it always has: anonymous, default http.Client, two
// retries on transient failures.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		conn:      api.Conn{Base: strings.TrimRight(base, "/"), HC: &http.Client{}},
		retries:   2,
		retryBase: 100 * time.Millisecond,
		wall:      clock.System(),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// BaseURL returns the normalized base URL this client talks to, with
// no trailing slash.
func (c *Client) BaseURL() string { return c.conn.Base }

// APIError is the decoded error envelope a Client call returns for a
// refusal.
type APIError = api.Error

// The refusals callers branch on with errors.Is (see internal/api).
var (
	ErrUnauthorized  = api.ErrUnauthorized
	ErrRateLimited   = api.ErrRateLimited
	ErrQuotaExceeded = api.ErrQuotaExceeded
)

// do is one API call under the client's retry policy, returning the
// success body. body is a byte slice, not a Reader, so retried attempts
// can resend it. retry=false is for non-idempotent calls (Cancel): a
// lost response there must surface, not silently re-fire.
func (c *Client) do(ctx context.Context, method, path string, body []byte, retry bool) ([]byte, error) {
	delay := c.retryBase
	for attempt := 0; ; attempt++ {
		resp, err := c.conn.Do(ctx, method, path, body)
		if err == nil {
			defer resp.Body.Close()
			raw, err := readBody(resp)
			if err != nil {
				return nil, fmt.Errorf("client: reading %s: %w", path, err)
			}
			return raw, nil
		}
		if !retry || attempt >= c.retries || !api.Transient(err) || ctx.Err() != nil {
			return nil, err
		}
		// A queue-full 503 or a throttle 429 states when to come back,
		// which beats guessing.
		wait := delay
		var ae *api.Error
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		select {
		case <-ctx.Done():
			return nil, err
		case <-c.wall.After(wait):
		}
		delay *= 2
	}
}

// maxSizedBody caps the buffer a declared Content-Length sizes up
// front, so a reply that claims more than it carries cannot make the
// client allocate it.
const maxSizedBody = 16 << 20

// readBody reads a response body. One of known length, as every reply
// about a finished job is, goes into one buffer of exactly that length
// instead of through io.ReadAll's growing ones.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// call is do plus decoding the success body into a T.
func call[T any](ctx context.Context, c *Client, method, path string, body []byte, retry bool) (T, error) {
	var v T
	raw, err := c.do(ctx, method, path, body, retry)
	if err == nil {
		if err = json.Unmarshal(raw, &v); err != nil {
			err = fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return v, err
}

// Submit posts a suite spec (raw JSON) and returns the accepted job.
// Transient failures — the daemon restarting, its queue momentarily
// full — are retried; a queue-full rejection waits the server's own
// Retry-After before re-submitting.
func (c *Client) Submit(ctx context.Context, spec io.Reader, priority int) (JobInfo, error) {
	raw, err := io.ReadAll(spec)
	if err != nil {
		return JobInfo{}, fmt.Errorf("client: reading spec: %w", err)
	}
	path := "/api/v1/jobs"
	if priority != 0 {
		path += "?priority=" + strconv.Itoa(priority)
	}
	return call[JobInfo](ctx, c, http.MethodPost, path, raw, true)
}

// Jobs lists every job the daemon knows, newest first.
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	return call[[]JobInfo](ctx, c, http.MethodGet, "/api/v1/jobs", nil, true)
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	return call[JobInfo](ctx, c, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, true)
}

// Workers lists the hub's fleet: registered workers, their liveness,
// in-flight leases and completion counts.
func (c *Client) Workers(ctx context.Context) ([]dispatch.WorkerInfo, error) {
	return call[[]dispatch.WorkerInfo](ctx, c, http.MethodGet, "/api/v1/workers", nil, true)
}

// Cancel requests cancellation and returns the (possibly still
// running) job state. Not retried: a cancel whose response was lost may
// have landed, and silently re-firing would turn that ambiguity into a
// misleading "already cancelled" conflict.
func (c *Client) Cancel(ctx context.Context, id string) (JobInfo, error) {
	return call[JobInfo](ctx, c, http.MethodDelete, "/api/v1/jobs/"+url.PathEscape(id), nil, false)
}

// Report fetches a finished (or partial) job report.
func (c *Client) Report(ctx context.Context, id string, canonical bool) (*report.Report, error) {
	raw, err := c.ReportBytes(ctx, id, canonical)
	if err != nil {
		return nil, err
	}
	return report.Read(bytes.NewReader(raw))
}

// ReportBytes fetches the report exactly as the server rendered it —
// the byte-identity the e2e tests assert lives on this path.
func (c *Client) ReportBytes(ctx context.Context, id string, canonical bool) ([]byte, error) {
	path := "/api/v1/jobs/" + url.PathEscape(id) + "/report"
	if canonical {
		path += "?canonical=1"
	}
	return c.do(ctx, http.MethodGet, path, nil, true)
}

// Watch follows the job's SSE stream, invoking onCell (if non-nil) for
// every completed cell in plan order — including cells completed before
// Watch connected, which the server replays — and returns the terminal
// JobInfo from the done event.
func (c *Client) Watch(ctx context.Context, id string, onCell func(report.Cell)) (JobInfo, error) {
	var info JobInfo
	err := c.follow(ctx, "/api/v1/jobs/"+url.PathEscape(id)+"/events", 0, func(f api.Frame) (bool, error) {
		switch f.Event {
		case "cell":
			if onCell != nil {
				var cell report.Cell
				if err := json.Unmarshal(f.Data, &cell); err != nil {
					return false, fmt.Errorf("client: bad cell event: %w", err)
				}
				onCell(cell)
			}
		case "done":
			if err := json.Unmarshal(f.Data, &info); err != nil {
				return false, fmt.Errorf("client: bad done event: %w", err)
			}
			return true, nil
		}
		return false, nil
	})
	return info, err
}

// follow reads the SSE stream at path, handing each frame to onFrame
// until it reports done or fails. A dropped stream reconnects with the
// standard Last-Event-ID header, so the server resumes right after the
// last frame delivered and onFrame sees each frame exactly once. Only
// consecutive failures count against the retry budget; any delivered
// frame resets it. A refusal that is not transient ends the follow.
func (c *Client) follow(ctx context.Context, path string, lastID uint64, onFrame func(api.Frame) (done bool, err error)) error {
	fails := 0
	delay := c.retryBase
	for {
		conn := c.conn
		if lastID > 0 {
			conn.Header = http.Header{"Last-Event-ID": {strconv.FormatUint(lastID, 10)}}
		}
		resp, err := conn.Do(ctx, http.MethodGet, path, nil)
		if err != nil && !api.Transient(err) {
			return err
		}
		if err == nil {
			// The reader's buffers go back to their pool when the stream
			// ends, so onFrame copies whatever it keeps of a frame.
			rd := api.NewReader(resp.Body, lastID)
			for {
				f, rerr := rd.Next()
				if rerr != nil {
					break // EOF or a cut read: the stream dropped
				}
				done, ferr := onFrame(f)
				if done {
					// The hub ends a job stream right after done. Reading to
					// that end before closing hands the connection back to
					// the pool; closing first makes the transport drop it.
					_, _ = io.Copy(io.Discard, resp.Body)
				}
				if done || ferr != nil {
					resp.Body.Close()
					rd.Release()
					return ferr
				}
				lastID, fails = f.ID, 0
			}
			resp.Body.Close()
			rd.Release()
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: event stream: %w", ctx.Err())
		}
		fails++
		if fails > c.retries+1 {
			return fmt.Errorf("client: event stream %s dropped %d times in a row; giving up", path, fails)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: event stream: %w", ctx.Err())
		case <-c.wall.After(delay):
		}
		delay *= 2
	}
}

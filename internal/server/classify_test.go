package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
)

// scriptedHub is an in-memory hub behind an http.RoundTripper. The first
// request to the probed route gets the scripted status (no answer at
// all when status is 0); every other request gets ok's success answer.
type scriptedHub struct {
	method, path string
	status       int
	ok           func(*http.Request) (int, string)

	probes   atomic.Int32 // requests to the probed route
	answered atomic.Int32 // success answers to the probed route
}

func (h *scriptedHub) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
	}
	code, body := h.ok(req)
	header := http.Header{"Content-Type": {"application/json"}}
	probe := req.Method == h.method && req.URL.Path == h.path
	switch {
	case !probe:
	case h.probes.Add(1) > 1 || h.status == http.StatusOK:
		if h.status == http.StatusOK {
			code = http.StatusOK
		}
		h.answered.Add(1)
	case h.status == 0:
		return nil, errors.New("connection refused")
	case h.status == http.StatusNoContent:
		code, body = h.status, ""
	default:
		code = h.status
		body = fmt.Sprintf(`{"error":{"code":"scripted","message":"scripted %d"}}`, code)
		if code == http.StatusTooManyRequests {
			header.Set("Retry-After", "1")
		}
	}
	return &http.Response{
		StatusCode: code, Header: header, Request: req,
		Body: io.NopCloser(strings.NewReader(body)),
	}, nil
}

// instantWall fires every timer at once, so a client honouring a
// Retry-After waits for nothing.
type instantWall struct{}

func (instantWall) Now() time.Time { return time.Now() }
func (instantWall) After(time.Duration) <-chan time.Time {
	c := make(chan time.Time, 1)
	c <- time.Now()
	return c
}

// TestClientsClassifyStatusesAlike runs the job client and the fleet
// worker against one list of hub answers and pins that both repeat a
// request exactly when the answer is transient: no answer at all, 429,
// 500, 502, 503 or 504.
func TestClientsClassifyStatusesAlike(t *testing.T) {
	const base = "http://hub.invalid"
	clients := []struct {
		name, method, path string
		ok                 func(*http.Request) (int, string)
		run                func(t *testing.T, hub *scriptedHub)
	}{{
		name: "server.Client Submit", method: http.MethodPost, path: "/api/v1/jobs",
		ok: func(*http.Request) (int, string) {
			return http.StatusAccepted, `{"id":"j000001","status":"queued"}`
		},
		run: func(t *testing.T, hub *scriptedHub) {
			cli := NewClient(base, WithHTTPClient(&http.Client{Transport: hub}), WithRetryPolicy(1, time.Millisecond))
			cli.wall = instantWall{}
			_, _ = cli.Submit(context.Background(), strings.NewReader(tinySpec), 0)
		},
	}, {
		name: "dispatch.Worker register", method: http.MethodPost, path: "/api/v1/workers",
		ok: func(r *http.Request) (int, string) {
			switch {
			case r.URL.Path == "/api/v1/workers":
				return http.StatusCreated, `{"worker_id":"w1","heartbeat_ms":60000}`
			case strings.HasSuffix(r.URL.Path, "/lease:batch"):
				return http.StatusOK, `{}`
			}
			return http.StatusNoContent, ""
		},
		run: func(t *testing.T, hub *scriptedHub) {
			w, err := dispatch.NewWorker(dispatch.WorkerConfig{
				HubURL: base, HTTPClient: &http.Client{Transport: hub}, PollInterval: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()
			// Registered or refused: either ends the probe.
			for hub.answered.Load() == 0 {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			<-done
		},
	}}

	for _, tc := range []struct {
		status    int // 0: the request gets no answer
		transient bool
	}{
		{http.StatusOK, false},
		{http.StatusNoContent, false},
		{http.StatusBadRequest, false},
		{http.StatusUnauthorized, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true}, // with Retry-After: 1
		{http.StatusInternalServerError, true},
		{http.StatusBadGateway, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, true},
		{0, true},
	} {
		name := "no-answer"
		if tc.status != 0 {
			name = strconv.Itoa(tc.status)
		}
		t.Run(name, func(t *testing.T) {
			want := int32(1)
			if tc.transient {
				want = 2
			}
			for _, c := range clients {
				hub := &scriptedHub{method: c.method, path: c.path, status: tc.status, ok: c.ok}
				c.run(t, hub)
				if got := hub.probes.Load(); got != want {
					t.Errorf("%s sent the request %d times, want %d (transient=%v)", c.name, got, want, tc.transient)
				}
			}
		})
	}
}

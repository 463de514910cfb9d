// Package api holds the /api/v1 wire conventions every process that
// talks to a hub shares: the JSON error envelope the hub writes and its
// one decoder, the one rule for which failures are worth repeating, the
// request helper that stamps the credential and turns every refusal
// into *Error, and the SSE framing of the event streams (sse.go).
//
// Every refusal any /api/v1 route issues renders as one envelope:
//
//	{"error": {"code": "rate_limited", "message": "...", "retry_after_s": 2}}
//
// Machine-stable codes let clients branch without parsing prose. The
// package classifies and never retries: the job client and the fleet
// worker each keep their own retry policy.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Sentinels for the refusals callers branch on. Match with errors.Is
// against any error a Conn call returns.
var (
	// ErrUnauthorized: the hub enforces auth and the key was missing or
	// unknown. A bad credential does not heal, so no caller retries it.
	ErrUnauthorized = errors.New("server: unauthorized")
	// ErrRateLimited: the tenant ran over a rate limit (429); retrying
	// after the stated Retry-After succeeds.
	ErrRateLimited = errors.New("server: rate limited")
	// ErrQuotaExceeded: the tenant's backlog quota is full (429); the
	// backlog drains as workers pop jobs.
	ErrQuotaExceeded = errors.New("server: quota exceeded")
)

// Error is a hub refusal: the HTTP status, the envelope's code, the
// human message, and the server-stated retry delay (zero when absent).
type Error struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("server: HTTP %d", e.StatusCode)
}

// Is maps envelope codes onto the sentinels.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrUnauthorized:
		return e.StatusCode == http.StatusUnauthorized
	case ErrRateLimited:
		return e.Code == "rate_limited"
	case ErrQuotaExceeded:
		return e.Code == "quota_exceeded"
	}
	return false
}

// Transient reports whether a failed call may succeed if repeated: the
// request got no answer (the *url.Error every http.Client failure is),
// or the hub answered 429, 500, 502, 503 or 504. Every other outcome, a
// success body that does not decode included, is the hub's final word.
func Transient(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		switch e.StatusCode {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// envelope is the wire shape of every API error response.
type envelope struct {
	Error struct {
		// Code is the machine-stable discriminator (see defaultCode).
		Code    string `json:"code"`
		Message string `json:"message"`
		// RetryAfterS mirrors the Retry-After header for clients that
		// only see the body (SSE libraries, logged responses).
		RetryAfterS int `json:"retry_after_s,omitempty"`
	} `json:"error"`
}

// defaultCode infers the envelope code a status implies. Paths that
// need a more specific code (quota_exceeded vs rate_limited on 429)
// call WriteErrorCode.
func defaultCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// WriteError writes the envelope with the status's default code.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteErrorCode(w, status, defaultCode(status), 0, format, args...)
}

// WriteErrorCode writes the envelope with an explicit code and, when
// retryAfterS > 0, a matching Retry-After header — the single place the
// header and the body are kept in agreement.
func WriteErrorCode(w http.ResponseWriter, status int, code string, retryAfterS int, format string, args ...any) {
	if retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var env envelope
	env.Error.Code = code
	env.Error.Message = fmt.Sprintf(format, args...)
	env.Error.RetryAfterS = retryAfterS
	_ = json.NewEncoder(w).Encode(env)
}

// decodeError reads a refusal into *Error. A body that is not the
// envelope leaves only the status; a delta-seconds Retry-After header
// wins over the body's retry_after_s.
func decodeError(resp *http.Response) *Error {
	e := &Error{StatusCode: resp.StatusCode}
	var env envelope
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env) == nil {
		e.Code, e.Message = env.Error.Code, env.Error.Message
		e.RetryAfter = seconds(int64(env.Error.RetryAfterS))
	}
	if n, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && n > 0 {
		e.RetryAfter = seconds(n)
	}
	return e
}

// seconds converts a delta-seconds delay, reading one that is not
// positive or overflows a Duration as no delay.
func seconds(n int64) time.Duration {
	if n <= 0 || n > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(n) * time.Second
}

// maxBody bounds a success body JSON decodes: the hub never sends one
// larger than a store record (64 MiB).
const maxBody = 64 << 20

// BaseURL checks a hub base URL and returns it without trailing
// slashes, ready for Conn.Base. It wants an http or https scheme and
// one host[:port] (an IPv6 literal in brackets is fine), optionally
// followed by a path prefix for a hub behind a proxy. A comma in the
// host is refused: url.Parse reads "http://a:1,http://b:1" as host
// "a:1,http:", a list of hubs that would otherwise surface only as DNS
// failures on every request.
func BaseURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") ||
		u.Host == "" || strings.Contains(u.Host, ",") {
		return "", fmt.Errorf("hub URL %q: want one http(s)://host[:port][/prefix]", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

// Conn is one process's way to its hub: the base URL, the HTTP client,
// the API key (empty means anonymous) and headers sent on every
// request.
type Conn struct {
	Base   string
	HC     *http.Client
	Key    string
	Header http.Header
}

// Do sends one request. body, when non-nil, goes out as JSON. A status
// of 400 or more comes back as *Error with the body consumed, and a
// request that got no answer as the client's *url.Error; otherwise the
// caller owns resp.Body.
func (c Conn) Do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range c.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Key != "" {
		req.Header.Set("Authorization", "Bearer "+c.Key)
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer drain(resp.Body)
		return nil, decodeError(resp)
	}
	return resp, nil
}

// JSON is one JSON round trip: in, when non-nil, is encoded as the
// body, and a success body is decoded into out (nil discards it).
func (c Conn) JSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("encoding %s %s: %w", method, path, err)
		}
	}
	resp, err := c.Do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(out); err != nil {
		return fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return nil
}

// drain reads what is left of a body so the connection can be reused,
// then closes it.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// The frames below are the job stream's cell and done events, the
// fleet stream's event and its keepalive, as internal/server's tests
// script them.
var sseSeeds = []string{
	"id: 1\nevent: cell\ndata: {\"id\":\"cell-a\"}\n\n",
	"id: 2\nevent: cell\ndata: {\"id\":\"cell-b\"}\n\nevent: done\ndata: {\"id\":\"j000001\",\"status\":\"done\",\"done_cells\":2}\n\n",
	"id: 7\ndata: {\"seq\":7,\"type\":\"lease.granted\"}\n\n: keepalive\n\n",
	"id: 9\nid: 3\ndata: backwards\n\n",
	"data: a\ndata: b\n\nid: x\ndata\n\n",
}

func TestWriteFrameWireBytes(t *testing.T) {
	for _, tc := range []struct {
		f    Frame
		want string
	}{
		{Frame{ID: 1, Event: "cell", Data: []byte(`{"id":"c"}`)}, "id: 1\nevent: cell\ndata: {\"id\":\"c\"}\n\n"},
		{Frame{Event: "done", Data: []byte(`{}`)}, "event: done\ndata: {}\n\n"},
		{Frame{ID: 42, Data: []byte(`{"seq":42}`)}, "id: 42\ndata: {\"seq\":42}\n\n"},
		{Frame{Data: []byte("a\nb")}, "data: a\ndata: b\n\n"},
	} {
		var b bytes.Buffer
		if err := WriteFrame(&b, tc.f); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("WriteFrame(%+v) = %q, want %q", tc.f, b.String(), tc.want)
		}
	}
}

// TestWriteFrameDoesNotAllocate: a frame whose data is one line, as a
// cell's JSONL line always is, is written without allocating. The race
// detector's sync.Pool drops buffers at random, so a race build only
// checks the bytes.
func TestWriteFrameDoesNotAllocate(t *testing.T) {
	f := Frame{ID: 12, Event: "cell", Data: []byte(`{"id":"quicksort/roundrobin/n2s4/figure5/adaptive"}`)}
	var b bytes.Buffer
	b.Grow(256)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		if err := WriteFrame(&b, f); err != nil {
			t.Fatal(err)
		}
	})
	if want := "id: 12\nevent: cell\ndata: " + string(f.Data) + "\n\n"; b.String() != want {
		t.Fatalf("WriteFrame wrote %q, want %q", b.String(), want)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("WriteFrame of a one-line frame allocates %.0f objects, want 0", allocs)
	}
}

// loopReader reads b over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestReaderNextDoesNotAllocate: once its buffers are warm, a Reader
// returns the hub's cell and done frames without allocating: the
// frame's Data is the reader's buffer and the two event names are
// constants.
func TestReaderNextDoesNotAllocate(t *testing.T) {
	rd := NewReader(&loopReader{b: []byte(sseSeeds[1])}, 0)
	var f Frame
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if f, err = rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f objects per frame, want 0", allocs)
	}
	if f.Event != "done" && f.Event != "cell" {
		t.Fatalf("read %+v", f)
	}
	rd.Release()
}

// FuzzSSEFrames checks the reader against arbitrary bytes (no panic,
// ids never decrease) and against the writer (what it writes reads
// back identical, across a keepalive comment). Each frame is compared
// before the next Next, since its Data lives only until then.
func FuzzSSEFrames(f *testing.F) {
	for _, s := range sseSeeds {
		f.Add([]byte(s), uint64(1), "cell", []byte(`{"id":"cell-a"}`))
	}
	f.Add([]byte(""), uint64(0), "", []byte("multi\nline\n"))
	f.Fuzz(func(t *testing.T, stream []byte, id uint64, event string, data []byte) {
		rd := NewReader(bytes.NewReader(stream), 0)
		var last uint64
		for {
			fr, err := rd.Next()
			if err != nil {
				break
			}
			if fr.ID < last {
				t.Fatalf("event id went backwards: %d after %d", fr.ID, last)
			}
			last = fr.ID
		}
		rd.Release()

		// SSE has no way to carry a carriage return, nor a line break in
		// the event name.
		if bytes.ContainsRune(data, '\r') || bytes.ContainsAny([]byte(event), "\r\n") || len(data) > 64<<10 {
			return
		}
		want := []Frame{
			{ID: id, Event: event, Data: data},
			{Event: "done", Data: data},
			{ID: id + 1, Data: []byte("{}")},
		}
		if id == 0 || id+1 == 0 {
			want[2].ID = id // an id line of 0 is not written
		}
		var b bytes.Buffer
		for i, fr := range want {
			if err := WriteFrame(&b, fr); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				b.WriteString(": keepalive\n\n")
			}
		}
		want[1].ID = id // a frame without an id line reports the last one
		rd = NewReader(&b, 0)
		for i, w := range want {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.ID != w.ID || got.Event != w.Event || !bytes.Equal(got.Data, w.Data) {
				t.Fatalf("frame %d read back as %+v, want %+v", i, got, w)
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		rd.Release()
	})
}

// FuzzDecodeError checks that any refusal body decodes to an *Error
// carrying the HTTP status, and that the envelope WriteErrorCode writes
// decodes back to its code, message and retry delay.
func FuzzDecodeError(f *testing.F) {
	// Envelopes and bodies the server's tests answer with.
	f.Add(401, "", []byte(`{"error":{"code":"unauthorized","message":"tenant: missing or unknown API key"}}`+"\n"))
	f.Add(429, "3", []byte(`{"error":{"code":"rate_limited","message":"slow down","retry_after_s":3}}`+"\n"))
	f.Add(429, "", []byte(`{"error":{"code":"quota_exceeded","message":"tenant carol already has 1 jobs queued (cap 1)"}}`))
	f.Add(503, "0", []byte(`{"error":{"code":"unavailable","message":"job queue full"}}`))
	f.Add(503, "", []byte("hub overloaded\n"))
	f.Add(404, "", []byte(`{"error":"legacy bare string"}`))
	f.Add(500, "-1", []byte(`{"error":{"retry_after_s":99999999999999}}`))
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		status = 400 + (status%200+200)%200
		resp := &http.Response{
			StatusCode: status,
			Header:     http.Header{"Retry-After": {retryAfter}},
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		e := decodeError(resp)
		if e.StatusCode != status {
			t.Fatalf("decoded status %d, want %d", e.StatusCode, status)
		}
		if e.RetryAfter < 0 {
			t.Fatalf("negative retry delay %v", e.RetryAfter)
		}
		if errors.Is(e, ErrUnauthorized) != (status == http.StatusUnauthorized) {
			t.Fatalf("status %d: errors.Is(ErrUnauthorized) wrong", status)
		}

		if len(body) > 8<<10 {
			return // escaped, it could pass the decoder's 64 KiB read cap
		}
		secs := len(body) % 5
		rec := httptest.NewRecorder()
		WriteErrorCode(rec, status, "some_code", secs, "%s", body)
		e = decodeError(rec.Result())
		if e.StatusCode != status || e.Code != "some_code" || e.RetryAfter != time.Duration(secs)*time.Second {
			t.Fatalf("round trip = %+v", e)
		}
		if want := string([]rune(string(body))); e.Message != want {
			t.Fatalf("message %q, want %q", e.Message, want)
		}
	})
}

func TestBaseURL(t *testing.T) {
	for raw, want := range map[string]string{
		"http://127.0.0.1:8321":    "http://127.0.0.1:8321",
		"https://hub:8321/":        "https://hub:8321",
		"http://[::1]:8321":        "http://[::1]:8321",
		"http://proxy/ptest/hub//": "http://proxy/ptest/hub",
	} {
		if got, err := BaseURL(raw); err != nil || got != want {
			t.Errorf("BaseURL(%q) = %q, %v; want %q", raw, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "hub:8321", "/just/a/path", "ftp://hub:8321", "http://",
		"http://127.0.0.1:1,http://127.0.0.1:2", "http://a:1,b:2",
	} {
		if got, err := BaseURL(bad); err == nil {
			t.Errorf("BaseURL(%q) = %q, want an error", bad, got)
		}
	}
}

func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&url.Error{Op: "Post", URL: "http://hub", Err: errors.New("connection refused")}, true},
		{&Error{StatusCode: 429}, true},
		{&Error{StatusCode: 500}, true},
		{&Error{StatusCode: 502}, true},
		{&Error{StatusCode: 503}, true},
		{&Error{StatusCode: 504}, true},
		{&Error{StatusCode: 400}, false},
		{&Error{StatusCode: 401}, false},
		{&Error{StatusCode: 404}, false},
		{&Error{StatusCode: 507}, false},
		{&Error{StatusCode: 508}, false},
		{errors.New("decoding: EOF"), false},
		{nil, false},
	} {
		if got := Transient(tc.err); got != tc.want {
			name := "nil"
			if tc.err != nil {
				name = tc.err.Error()
			}
			t.Errorf("Transient(%s) = %v, want %v", name, got, tc.want)
		}
	}
}

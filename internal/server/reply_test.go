package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// countingListener counts the writes made on every conn it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFinishedJobRepliesTakeOneWrite fetches a finished job's event
// stream and both forms of its report: each reply, small enough for the
// server's conn buffer, reaches the conn in one write, and the reports
// declare their Content-Length.
func TestFinishedJobRepliesTakeOneWrite(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	ctx := context.Background()
	cli := NewClient(ts.URL)
	info, err := cli.Submit(ctx, strings.NewReader(warmSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = cli.Watch(ctx, info.ID, nil); err != nil || info.Status != JobDone {
		t.Fatalf("job %s ended %s: %v", info.ID, info.Status, err)
	}

	hc := ts.Client()
	for _, route := range []string{"/events", "/report", "/report?canonical=1"} {
		before := writes.Load()
		resp, err := hc.Get(ts.URL + "/api/v1/jobs/" + info.ID + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// One write holds while the reply and its headers fit net/http's
		// 4 KB conn buffer: this job's replies take 2.2 to 3.1 kB. What
		// the handlers control is that nothing is flushed early and that a
		// report declares its length; a larger reply takes more writes.
		if n := writes.Load() - before; n != 1 {
			t.Errorf("%s (%d bytes) went out in %d writes, want 1", route, len(body), n)
		}
		if strings.HasPrefix(route, "/report") && resp.ContentLength != int64(len(body)) {
			t.Errorf("%s declared Content-Length %d (transfer encoding %v) for a %d-byte body",
				route, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestJobInfoEncoding holds appendJobInfo to json.Marshal's bytes and
// to writeJSON's, with every field empty and with every field set by
// reflection, so a field added to JobInfo but not to its encoder fails
// here.
func TestJobInfoEncoding(t *testing.T) {
	var full JobInfo
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("a<b>&\"c\" \xff")
		case reflect.Int:
			f.SetInt(-3)
		case reflect.Uint64:
			f.SetUint(1 << 60)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("JobInfo.%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	for _, info := range []JobInfo{{}, full} {
		want, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJobInfo(nil, &info, false); !bytes.Equal(got, want) {
			t.Errorf("compact JobInfo\n%s\nwant json.Marshal's\n%s", got, want)
		}
		ref := httptest.NewRecorder()
		writeJSON(ref, 202, info)
		if got := appendJobInfo(nil, &info, true); !bytes.Equal(got, ref.Body.Bytes()) {
			t.Errorf("indented JobInfo\n%s\nwant writeJSON's\n%s", got, ref.Body.Bytes())
		}
		rec := httptest.NewRecorder()
		writeJobInfo(rec, 202, info)
		if rec.Code != ref.Code || !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) ||
			rec.Header().Get("Content-Type") != ref.Header().Get("Content-Type") {
			t.Errorf("writeJobInfo answered %d %q\n%s\nwant writeJSON's %d %q\n%s",
				rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(),
				ref.Code, ref.Header().Get("Content-Type"), ref.Body.Bytes())
		}
	}
}

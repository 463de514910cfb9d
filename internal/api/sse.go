package api

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"sync"
)

// Frame is one server-sent event. Event ids ascend within a stream and
// are the resume cursor a reconnecting client sends as Last-Event-ID.
type Frame struct {
	// ID is the event id; WriteFrame omits the id line when it is 0,
	// and Reader reports the stream's latest id there.
	ID uint64
	// Event names the event type; empty omits the event line.
	Event string
	// Data is the payload. A line break in it becomes one data line per
	// line; SSE cannot carry a carriage return. In a frame Reader.Next
	// returns, Data is the reader's own buffer: it holds the payload only
	// until the next Next or Release, so copy what must outlive that.
	Data []byte
}

// WriteFrame writes f in SSE framing, ending with the blank line that
// dispatches it, in one Write from a recycled buffer.
func WriteFrame(w io.Writer, f Frame) error {
	bp := frameBufs.Get().(*[]byte)
	b := *bp
	if f.ID > 0 {
		b = strconv.AppendUint(append(b, "id: "...), f.ID, 10)
		b = append(b, '\n')
	}
	if f.Event != "" {
		b = append(append(append(b, "event: "...), f.Event...), '\n')
	}
	data := f.Data
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		b = append(append(append(b, "data: "...), data[:i]...), '\n')
		data = data[i+1:]
	}
	b = append(append(append(b, "data: "...), data...), '\n', '\n')
	_, err := w.Write(b)
	*bp = b[:0]
	frameBufs.Put(bp)
	return err
}

// frameBufs recycles WriteFrame's buffers; a Writer keeps no slice it
// is given.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Reader parses an SSE stream into frames. It reads through pooled
// buffers, which Release hands back once the stream is done with.
type Reader struct {
	sc   *bufio.Scanner
	id   uint64
	bufs *readBufs // nil once released
}

// readBufs are one Reader's line buffer, which its scanner starts
// from, and the buffer its frames' Data share.
type readBufs struct{ line, data []byte }

// readerBufs recycles Readers' buffers. The line buffer is the size a
// bufio.Scanner would allocate first; a longer line makes the scanner
// grow its own, and the pooled one stays that size.
var readerBufs = sync.Pool{New: func() any { return &readBufs{line: make([]byte, 4096)} }}

// NewReader reads frames from r. lastID is the id the client resumed
// from; frames that carry no id report the latest one seen. Release
// the reader when done with it.
func NewReader(r io.Reader, lastID uint64) *Reader {
	b := readerBufs.Get().(*readBufs)
	sc := bufio.NewScanner(r)
	sc.Buffer(b.line, 1<<20)
	return &Reader{sc: sc, id: lastID, bufs: b}
}

// Release hands the reader's buffers back for another Reader to read
// through. The reader and the Data of every frame it returned are
// unusable from then on. A second Release does nothing.
func (r *Reader) Release() {
	if r.bufs == nil {
		return
	}
	readerBufs.Put(r.bufs)
	r.bufs, r.sc = nil, nil
}

// Next returns the next frame that carries data, skipping comment
// lines (the keepalive) and frames without data. An id line that does
// not parse or would move the id backwards is ignored, so ids never
// decrease. The frame's Data is valid until the next call. At the end
// of the stream Next returns io.EOF, or the read error that cut it.
func (r *Reader) Next() (Frame, error) {
	var f Frame
	data := r.bufs.data[:0]
	hasData := false
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			if hasData {
				f.ID, f.Data = r.id, data
				r.bufs.data = data
				return f, nil
			}
			f = Frame{}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			if n, err := strconv.ParseUint(string(value), 10, 64); err == nil && n >= r.id {
				r.id = n
			}
		case "event":
			f.Event = eventName(value)
		case "data":
			if hasData {
				data = append(data, '\n')
			}
			data = append(data, value...)
			hasData = true
		}
	}
	r.bufs.data = data
	if err := r.sc.Err(); err != nil {
		return Frame{}, err
	}
	return Frame{}, io.EOF
}

// eventName returns an event line's value as a string, without
// allocating one for the event names a hub sends.
func eventName(value []byte) string {
	switch string(value) {
	case "cell":
		return "cell"
	case "done":
		return "done"
	}
	return string(value)
}

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
	// line; SSE cannot carry a carriage return.
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

// Reader parses an SSE stream into frames.
type Reader struct {
	sc *bufio.Scanner
	id uint64
}

// NewReader reads frames from r. lastID is the id the client resumed
// from; frames that carry no id report the latest one seen.
func NewReader(r io.Reader, lastID uint64) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	return &Reader{sc: sc, id: lastID}
}

// Next returns the next frame that carries data, skipping comment
// lines (the keepalive) and frames without data. An id line that does
// not parse or would move the id backwards is ignored, so ids never
// decrease. At the end of the stream Next returns io.EOF, or the read
// error that cut it.
func (r *Reader) Next() (Frame, error) {
	var f Frame
	hasData := false
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			if hasData {
				f.ID = r.id
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
			f.Event = string(value)
		case "data":
			if hasData {
				f.Data = append(f.Data, '\n')
			}
			f.Data = append(f.Data, value...)
			hasData = true
		}
	}
	if err := r.sc.Err(); err != nil {
		return Frame{}, err
	}
	return Frame{}, io.EOF
}

// Package jsonenc appends JSON without reflection, in exactly the bytes
// encoding/json writes for the same values: json.Marshal's compact
// layout or json.MarshalIndent(v, "", "  ")'s indented one, the same
// HTML-safe string escaping, and the same float formatting. The report
// encoders, the cell key, the spec digest and the hub's job replies
// build on it, because the hub writes them for every job and cell it
// serves; encoding/json stays the reference their tests compare
// against.
//
// A Writer knows nothing of Go types. Its caller writes a struct's
// members in declaration order and leaves out the empty omitempty
// members itself, exactly as encoding/json would.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends one JSON value to B. The zero value writes compact
// JSON; set Indent for the two-space layout. Objects and arrays open
// as the named member of the enclosing object (Object, Array) or as a
// root value or array element (BeginObject).
type Writer struct {
	B      []byte
	Indent bool

	depth int
	// empty is true while the innermost open object or array has no
	// member yet.
	empty bool
	err   error
}

// Err returns the first value the writer could not encode: a NaN or an
// infinite float, which encoding/json refuses too. The bytes written
// after an error are meaningless.
func (w *Writer) Err() error { return w.err }

// BeginObject opens an object as the root value or as the next element
// of the open array.
func (w *Writer) BeginObject() {
	if w.depth > 0 {
		w.next()
	}
	w.open('{')
}

// EndObject closes the innermost open object.
func (w *Writer) EndObject() { w.close('}') }

// EndArray closes the innermost open array.
func (w *Writer) EndArray() { w.close(']') }

// Object opens an object as the member name.
func (w *Writer) Object(name string) {
	w.Field(name)
	w.open('{')
}

// Array opens an array as the member name.
func (w *Writer) Array(name string) {
	w.Field(name)
	w.open('[')
}

// Field writes the separator and the name of the next member of the
// open object. The member's value is what the caller appends to B
// next; the typed member methods below do both.
func (w *Writer) Field(name string) {
	w.next()
	w.B = appendString(w.B, name)
	w.B = append(w.B, ':')
	if w.Indent {
		w.B = append(w.B, ' ')
	}
}

// String writes a string member.
func (w *Writer) String(name, v string) {
	w.Field(name)
	w.B = appendString(w.B, v)
}

// StringElem writes a string as the next element of the open array.
func (w *Writer) StringElem(v string) {
	w.next()
	w.B = appendString(w.B, v)
}

// Int writes an integer member.
func (w *Writer) Int(name string, v int64) {
	w.Field(name)
	w.B = strconv.AppendInt(w.B, v, 10)
}

// Uint writes an unsigned integer member.
func (w *Writer) Uint(name string, v uint64) {
	w.Field(name)
	w.B = strconv.AppendUint(w.B, v, 10)
}

// Float writes a float64 member, recording an error for NaN and ±Inf.
func (w *Writer) Float(name string, v float64) {
	w.Field(name)
	var err error
	if w.B, err = appendFloat(w.B, v); err != nil && w.err == nil {
		w.err = err
	}
}

// Bool writes a boolean member.
func (w *Writer) Bool(name string, v bool) {
	w.Field(name)
	w.B = strconv.AppendBool(w.B, v)
}

// Null writes a null member: a nil slice, map or pointer without
// omitempty.
func (w *Writer) Null(name string) {
	w.Field(name)
	w.B = append(w.B, "null"...)
}

// next starts a member or element: a comma after the previous one,
// then the line break and indentation of the indented layout.
func (w *Writer) next() {
	if !w.empty {
		w.B = append(w.B, ',')
	}
	w.empty = false
	w.newline()
}

func (w *Writer) open(c byte) {
	w.B = append(w.B, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array. An empty one stays "{}" or
// "[]" in both layouts, as json.Indent leaves it.
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.B = append(w.B, c)
	w.empty = false
}

func (w *Writer) newline() {
	if !w.Indent {
		return
	}
	w.B = append(w.B, '\n')
	for i := 0; i < w.depth; i++ {
		w.B = append(w.B, ' ', ' ')
	}
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with the exponent unpadded. NaN and ±Inf are an
// error, as they are for json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal escapes
// it: quotes, backslashes and control bytes escaped; '<', '>' and '&'
// as six-byte \u escapes; each byte of invalid UTF-8 as the escaped
// replacement character U+FFFD; and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

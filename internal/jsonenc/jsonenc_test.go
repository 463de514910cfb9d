package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONString holds the string encoder to json.Marshal for any
// string: quotes, backslashes and control bytes, HTML's '<', '>' and
// '&', invalid UTF-8 and U+2028/U+2029 all escape as encoding/json
// escapes them.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `"quoted" \back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"<script>&amp;</script>", " line para", "\xff\xfe", "a\xc3", "\xed\xa0\x80",
		"héllo wörld ✓ 𝄞", "�",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
		// Through a Writer too, as a member name and value of both layouts.
		for _, indent := range []bool{false, true} {
			w := Writer{Indent: indent}
			w.BeginObject()
			w.String(s, s)
			w.EndObject()
			var want []byte
			if indent {
				want, err = json.MarshalIndent(map[string]string{s: s}, "", "  ")
			} else {
				want, err = json.Marshal(map[string]string{s: s})
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(w.B) != string(want) {
				t.Fatalf("Writer (indent %v) wrote %s, want %s", indent, w.B, want)
			}
		}
	})
}

// FuzzJSONFloat holds the float encoder to json.Marshal for any
// float64: the shortest round-tripping decimal, exponent form below
// 1e-6 and from 1e21 up, and an error with encoding/json's message for
// NaN and ±Inf.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5e300,
		1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1e20, 1e21, 9.999999999999999e20, -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 123456789.125,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, wantErr := json.Marshal(v)
		got, err := appendFloat(nil, v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendFloat(%v) error = %v, want %v", v, err, wantErr)
			}
			w := Writer{}
			w.BeginObject()
			w.Float("f", v)
			w.EndObject()
			if w.Err() == nil || w.Err().Error() != wantErr.Error() {
				t.Fatalf("Writer.Float(%v) error = %v, want %v", v, w.Err(), wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("appendFloat(%v): %v", v, err)
		}
		if string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}

package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fuzzReport builds a report from fuzzed values. Each bit of mask sets
// one omitempty field (or picks nil versus empty cells), so the corpus
// reaches every field in both its written and its omitted form.
func fuzzReport(s1, s2 string, f1, f2 float64, u uint64, i int64, mask uint32) *Report {
	bit := func(n int) bool { return mask&(1<<n) != 0 }
	str := func(n int, s string) string {
		if bit(n) {
			return s
		}
		return ""
	}
	num := func(n int) int {
		if bit(n) {
			return int(i)
		}
		return 0
	}
	flt := func(n int, f float64) float64 {
		if bit(n) {
			return f
		}
		return 0
	}
	cell := Cell{
		ID: s1, Workload: s2, Op: str(0, s1), N: int(i), S: num(1), PD: str(2, s2),
		Tool: s1 + s2, Seed: u,
		Summary: CampaignSummary{
			Trials: int(i), Bugs: int(u % 7), BugRate: f1,
			FirstBugTrial: num(3), FirstBug: str(4, s2), CleanFinishes: num(5),
			TotalCommands: num(6), TotalCycles: u, SpaceExhausted: bit(7),
			ServiceCoverage: flt(8, f1), TransitionCoverage: flt(9, f2),
			InterleavingPairs: num(10),
		},
		WallMS: f2,
	}
	r := &Report{
		SchemaVersion: int(i), Suite: s2, SpecDigest: str(11, s1),
		Totals: Totals{
			Cells: int(i), CellsWithBugs: int(i), DetectionRate: f2, Trials: int(i),
			Bugs: int(i), TotalCommands: int(i), TotalCycles: u,
		},
		Interrupted: bit(12),
		WallMS:      f1, CreatedAt: str(13, s2),
	}
	if bit(14) {
		r.PFACompiles = u
	}
	if bit(15) {
		r.StoreHits = u
	}
	if bit(16) {
		r.StoreMisses = u
	}
	switch {
	case bit(17): // nil cells: "null"
	case bit(18):
		r.Cells = []Cell{}
	default:
		other := cell
		other.ID, other.Summary.FirstBug = s2, s1
		r.Cells = []Cell{cell, other}
	}
	return r
}

// FuzzReportEncoding holds the direct encoders to encoding/json: Write
// writes json.MarshalIndent's bytes plus a newline, AppendCell writes
// json.Marshal's, and a NaN or an infinity is an error for all three.
// AppendCanonical writes what Append writes for Canonical's copy.
func FuzzReportEncoding(f *testing.F) {
	const all = 1<<17 - 1
	f.Add("quicksort/roundrobin/n4s8/figure5/adaptive", "[crash] at t=123: pool-exhausted", 0.4, 12.5, uint64(42), int64(5), uint32(all))
	f.Add(`<a href="x">&amp;</a>`, "tab\there\nnew\\line \"quoted\"", 1e-7, 1e21, uint64(math.MaxUint64), int64(-3), uint32(all))
	f.Add("ctl \x00\x01\x08\x0c\x1f\x7f end", "bad utf8 \xff\xfe and \xe2\x80\xa8 \xe2\x80\xa9 sep", 5e-324, math.MaxFloat64, uint64(0), int64(math.MinInt64), uint32(0))
	f.Add("", "", math.Copysign(0, -1), 1e20, uint64(1), int64(0), uint32(1<<17))
	f.Add("empty cells", "x", 0.1, 0.2, uint64(2), int64(2), uint32(1<<18))
	f.Add("nan", "y", math.NaN(), 1.0, uint64(3), int64(3), uint32(0))
	f.Add("inf", "z", 1.0, math.Inf(-1), uint64(4), int64(4), uint32(all))
	f.Add("tiny", "huge", -1.5e-9, -2.5e25, uint64(5), int64(5), uint32(1<<8|1<<9))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, u uint64, i int64, mask uint32) {
		r := fuzzReport(s1, s2, f1, f2, u, i, mask)
		want, wantErr := json.MarshalIndent(r, "", "  ")
		var got bytes.Buffer
		err := Write(&got, r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Write error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Fatalf("Write wrote\n%s\nencoding/json wrote\n%s", got.Bytes(), want)
		}
		wantCanon, wantErr := Append(nil, Canonical(r))
		gotCanon, err := AppendCanonical([]byte("x"), r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendCanonical error %v, Append of the canonical copy: %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(gotCanon, append([]byte("x"), wantCanon...)) {
			t.Fatalf("AppendCanonical wrote\n%s\nAppend of the canonical copy wrote\n%s", gotCanon, wantCanon)
		}
		for k := range r.Cells {
			want, wantErr := json.Marshal(r.Cells[k])
			got, err := AppendCell(nil, &r.Cells[k])
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("AppendCell error %v, encoding/json error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("AppendCell wrote\n%s\nencoding/json wrote\n%s", got, want)
			}
		}
	})
}

// TestEncodersWriteEveryField sets every field of a report, its totals
// and its cells to a non-zero value by reflection and compares the
// encoders with encoding/json. A field added to one of those types but
// not to the encoders fails here, even while the fuzz corpus leaves it
// zero.
func TestEncodersWriteEveryField(t *testing.T) {
	var r Report
	fill(reflect.ValueOf(&r).Elem())
	want, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, &r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Fatalf("Write wrote\n%s\nencoding/json wrote\n%s", got.Bytes(), want)
	}
	wantCanon, err := Append(nil, Canonical(&r))
	if err != nil {
		t.Fatal(err)
	}
	if gotCanon, _ := AppendCanonical(nil, &r); !bytes.Equal(gotCanon, wantCanon) {
		t.Fatalf("AppendCanonical wrote\n%s\nAppend of the canonical copy wrote\n%s", gotCanon, wantCanon)
	}
	wantCell, err := json.Marshal(r.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if gotCell, _ := AppendCell(nil, &r.Cells[0]); !bytes.Equal(gotCell, wantCell) {
		t.Fatalf("AppendCell wrote\n%s\nencoding/json wrote\n%s", gotCell, wantCell)
	}
}

// fill sets every field reachable from v to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint64:
		v.SetUint(4)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

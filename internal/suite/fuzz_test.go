package suite

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pfa"
	"repro/internal/report"
)

// keyEnvelope is the reference serialization of a cell's key: the
// envelope json.Marshal encodes, built as CellKey built it before it
// wrote the bytes directly.
func keyEnvelope(s *Spec, c *Cell) cellKeyEnvelope {
	return cellKeyEnvelope{
		Schema: report.SchemaVersion, RE: s.RE, Trials: s.Trials,
		KeepGoing: s.KeepGoing, MaxSteps: s.MaxSteps, CommandGap: s.CommandGap,
		Dedup: s.Dedup, Workload: c.Workload, Op: c.OpName,
		N: c.Point.N, S: c.Point.S, PD: c.PD, Tool: c.Tool, Seed: c.Seed,
	}
}

// checkKeyBytes compares appendCellKey with encoding/json for one cell,
// and CellKey with the SHA-256 of the reference bytes (of the cell ID,
// where the reference refuses a NaN or an infinity).
func checkKeyBytes(t *testing.T, s *Spec, c *Cell) {
	t.Helper()
	want, wantErr := json.Marshal(keyEnvelope(s, c))
	got, err := appendCellKey(nil, s, c)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendCellKey error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendCellKey wrote\n%s\nencoding/json wrote\n%s", got, want)
	}
	if wantErr != nil {
		want = []byte(c.ID)
	}
	sum := sha256.Sum256(want)
	if key := s.CellKey(*c); key != hex.EncodeToString(sum[:]) {
		t.Fatalf("CellKey %s, want the SHA-256 of\n%s", key, want)
	}
}

// FuzzCellKeyBytes holds the bytes CellKey hashes to json.Marshal of
// the cell's envelope, over every workload and tool knob, inline
// distributions, and a preemption bound that is nil, zero or negative.
// Each bit of mask sets one omitempty knob.
func FuzzCellKeyBytes(f *testing.F) {
	f.Add(pfa.PCoreRE, "quicksort", "adaptive-refine", "^", "TC", 4, 8, 2, 0.5, 0.25, 0.3, uint64(42), uint32(math.MaxUint32))
	f.Add("TC TD$", "philosophers", "", "TS", "TR", 16, 0, -1, 1e-7, 1e21, 1.0, uint64(math.MaxUint64), uint32(1<<18|1<<19))
	f.Add(`a<b>&"c"`, "ctl \x00\x1f\\ \xff", "\xe2\x80\xa8\xe2\x80\xa9", "", "\t", -3, -4, 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, uint64(0), uint32(1<<20))
	f.Add("TC TD$", "spin", "pct", "TC", "TD", 2, 4, 7, math.NaN(), 0.1, 0.2, uint64(7), uint32(1<<14))
	f.Add("TC TD$", "prodcons", "chess", "^", "TC", 2, 4, 7, 0.1, 0.2, math.Inf(1), uint64(7), uint32(1<<21))
	f.Fuzz(func(t *testing.T, re, name, label, from, sym string, n, sz, knob int, alpha, noise, prob float64, seed uint64, mask uint32) {
		bit := func(i int) bool { return mask&(1<<i) != 0 }
		val := func(i int) int {
			if bit(i) {
				return knob + i
			}
			return 0
		}
		s := &Spec{RE: re, Trials: knob, KeepGoing: bit(0), MaxSteps: n * sz, CommandGap: val(1), Dedup: bit(2)}
		c := Cell{
			ID: name + "/" + label, OpName: sym, Point: Point{N: n, S: sz}, Seed: seed,
			Workload: WorkloadSpec{
				Name: name, Rounds: val(3), Items: val(4), HogBursts: val(5), GCEvery: val(6),
				Quantum: val(7), MaxTasks: val(8), StackSize: val(9), GCLeakEvery: val(10),
				DropResumeEvery: val(11), MisplacePriorityEvery: val(12),
			},
			PD: PDSpec{Name: from},
			Tool: ToolSpec{
				Name: name, Refine: bit(13), Window: val(15), MaxSchedules: val(16), Depth: val(17),
			},
		}
		if bit(3) {
			c.Workload.Seed = seed
		}
		if bit(13) {
			c.Tool.Label = label
		}
		if bit(14) {
			c.Tool.Alpha, c.Tool.NoiseP = alpha, noise
		}
		switch {
		case bit(18):
			zero := 0
			c.Tool.PreemptionBound = &zero
		case bit(19):
			neg := -1 - knob&0xff
			c.Tool.PreemptionBound = &neg
		case bit(20):
			c.Tool.PreemptionBound = &knob
		}
		switch {
		case bit(21):
			c.PD.Dist = map[string]map[string]float64{
				from: {sym: prob, label: 1 - prob, "TS": alpha},
				sym:  nil,
				"^":  {},
			}
		case bit(22):
			c.PD.Dist = map[string]map[string]float64{} // empty: omitted like nil
		default:
			c.PD.Builtin = label
		}
		checkKeyBytes(t, s, &c)
	})
}

// TestCellKeyBytesWriteEveryField sets every field of a spec and a cell
// to a non-zero value by reflection and compares the key bytes with
// encoding/json, so a knob added to WorkloadSpec, PDSpec or ToolSpec
// but not to its encoder fails here even while the fuzz corpus leaves
// it zero.
func TestCellKeyBytesWriteEveryField(t *testing.T) {
	var s Spec
	var c Cell
	fill(reflect.ValueOf(&s).Elem())
	fill(reflect.ValueOf(&c).Elem())
	checkKeyBytes(t, &s, &c)
}

// fill sets every field reachable from v to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64, reflect.Uint8:
		if v.CanInt() {
			v.SetInt(3)
		} else {
			v.SetUint(3)
		}
	case reflect.Uint64:
		v.SetUint(4)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"b", "a"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e)
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// checkDigestBytes compares appendDigest with encoding/json's bytes for
// the spec's digestSpec, errors included.
func checkDigestBytes(t *testing.T, s *Spec) {
	t.Helper()
	want, wantErr := json.Marshal(digestSpec{
		Name: s.Name, RE: s.RE, Seed: s.Seed, Trials: s.Trials,
		KeepGoing: s.KeepGoing, MaxSteps: s.MaxSteps, CommandGap: s.CommandGap,
		Dedup: s.Dedup, Workloads: s.Workloads, Ops: s.Ops, Points: s.Points,
		PDs: s.PDs, Tools: s.Tools,
	})
	got, err := appendDigest(nil, s)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendDigest error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendDigest wrote\n%s\nencoding/json wrote\n%s", got, want)
	}
}

// TestDigestBytesWriteEveryField sets every field of a spec to a
// non-zero value by reflection, and then leaves every one zero, and
// compares the digest bytes with encoding/json each time, so a field
// added to Spec and digestSpec but not to appendDigest fails here.
func TestDigestBytesWriteEveryField(t *testing.T) {
	var s Spec
	fill(reflect.ValueOf(&s).Elem())
	checkDigestBytes(t, &s)
	checkDigestBytes(t, &Spec{})
	checkDigestBytes(t, &Spec{Ops: []string{}, PDs: []PDSpec{{Dist: map[string]map[string]float64{"^": nil}}}})
}

// FuzzParseSpec feeds the submit path arbitrary bytes. Parsing never
// panics; Parse and ParsePlan accept and refuse the same specs with
// the same message; the bytes a spec's digest hashes are json.Marshal's
// for its digestSpec, whether or not it validates; and a spec that
// parses, encoded to JSON and parsed again, resolves to the same digest
// and the same cell keys.
func FuzzParseSpec(f *testing.F) {
	seeds, err := filepath.Glob("../../examples/suite/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, "testdata/golden-spec.json") {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := decode(bytes.NewReader(data)); err == nil {
			checkDigestBytes(t, s)
		}
		p, err := ParsePlan(bytes.NewReader(data))
		_, perr := Parse(bytes.NewReader(data))
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("ParsePlan error %v, Parse error %v", err, perr)
		}
		if err != nil {
			return
		}
		checkDigestBytes(t, p.Spec())
		js, err := json.Marshal(p.Spec())
		if err != nil {
			t.Fatalf("re-encoding a parsed spec: %v", err)
		}
		again, err := ParsePlan(bytes.NewReader(js))
		if err != nil {
			t.Fatalf("re-encoded spec refused: %v\n%s", err, js)
		}
		if again.Digest() != p.Digest() {
			t.Fatalf("digest %s after a round trip, was %s\n%s", again.Digest(), p.Digest(), js)
		}
		keys := func(p *Plan) []string {
			var ks []string
			for _, c := range p.Cells() {
				ks = append(ks, c.ID+" "+p.Spec().CellKey(c))
			}
			return ks
		}
		if a, b := keys(again), keys(p); !slices.Equal(a, b) {
			t.Fatalf("cell keys after a round trip\n%v\nwere\n%v", a, b)
		}
	})
}

package recording

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFigure4StateRecords(t *testing.T) {
	// The paper's Figure 4: CP1 = (m2, s1, p1->p2->p3, 2, p3) and
	// CP2 = (m3, s2, p2->p1->p3, 1, p1->p3).
	cp1 := Record{
		QM: "m2", QS: "s1",
		TP:  []string{"p1", "p2", "p3"},
		SN:  2,
		Sub: Remaining([]string{"p1", "p2", "p3"}, 2),
	}
	if cp1.String() != "(m2, s1, p1->p2->p3, 2, p3)" {
		t.Fatalf("CP1 renders %q", cp1.String())
	}
	cp2 := Record{
		QM: "m3", QS: "s2",
		TP:  []string{"p2", "p1", "p3"},
		SN:  1,
		Sub: Remaining([]string{"p2", "p1", "p3"}, 1),
	}
	if cp2.String() != "(m3, s2, p2->p1->p3, 1, p1->p3)" {
		t.Fatalf("CP2 renders %q", cp2.String())
	}
}

func TestRemaining(t *testing.T) {
	tp := []string{"a", "b", "c"}
	cases := []struct {
		sn   int
		want string
	}{
		{0, "a b c"},
		{1, "b c"},
		{2, "c"},
		{3, ""},
		{9, ""},
		{-1, "a b c"},
	}
	for _, tc := range cases {
		got := strings.Join(Remaining(tp, tc.sn), " ")
		if got != tc.want {
			t.Errorf("Remaining(%d) = %q, want %q", tc.sn, got, tc.want)
		}
	}
	// δS shares TP's array but is capped, so growing it cannot reach TP.
	sub := Remaining(tp[:2], 1)
	_ = append(sub, "x")
	if tp[2] != "c" {
		t.Fatalf("appending to δS overwrote TP: %q", tp)
	}
}

func TestRemainingProperty(t *testing.T) {
	// Property: len(Remaining(tp, sn)) == max(0, len(tp)-max(0,sn)) and
	// the result is a suffix of tp.
	err := quick.Check(func(n uint8, sn int8) bool {
		tp := make([]string, n%10)
		for i := range tp {
			tp[i] = string(rune('a' + i))
		}
		rem := Remaining(tp, int(sn))
		start := int(sn)
		if start < 0 {
			start = 0
		}
		wantLen := len(tp) - start
		if wantLen < 0 {
			wantLen = 0
		}
		if len(rem) != wantLen {
			return false
		}
		for i, s := range rem {
			if tp[start+i] != s {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendAndQuery(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 5; i++ {
		j.Append(uint64(i*10), i%2, Record{QM: "m", QS: "s", SN: i})
	}
	if j.Len() != 5 {
		t.Fatalf("len %d", j.Len())
	}
	last, ok := j.Last()
	if !ok || last.Record.SN != 4 {
		t.Fatalf("last %+v", last)
	}
	e, ok := j.LastForTask(0)
	if !ok || e.Record.SN != 4 {
		t.Fatalf("lastForTask(0) %+v", e)
	}
	e, ok = j.LastForTask(1)
	if !ok || e.Record.SN != 3 {
		t.Fatalf("lastForTask(1) %+v", e)
	}
	if _, ok := j.LastForTask(7); ok {
		t.Fatal("entry for unknown task")
	}
	per := j.PerTask()
	if len(per[0]) != 3 || len(per[1]) != 2 {
		t.Fatalf("perTask %v", per)
	}
}

func TestJournalBound(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 10; i++ {
		j.Append(uint64(i), 0, Record{SN: i})
	}
	if j.Len() != 3 {
		t.Fatalf("len %d", j.Len())
	}
	if j.Dropped() != 7 {
		t.Fatalf("dropped %d", j.Dropped())
	}
	es := j.Entries()
	if es[0].Record.SN != 7 || es[2].Record.SN != 9 {
		t.Fatalf("entries %v", es)
	}

	// Against a model that evicts one entry per append, as the journal
	// once did: every accessor agrees after every append, across several
	// chunked evictions.
	const limit = 4
	b := NewJournal(limit)
	var model []Entry
	for i := 1; i <= 5*limit+1; i++ {
		task := i % 3
		r := Record{QM: "issue:TS", QS: "ready", TP: []string{"TC", "TS"}, SN: i}
		b.Append(uint64(10*i), task, r)
		model = append(model, Entry{Seq: uint64(i), At: uint64(10 * i), Task: task, Record: r})
		if len(model) > limit {
			model = model[1:]
		}
		if got := b.Entries(); !reflect.DeepEqual(got, model) {
			t.Fatalf("append %d: entries %v, want %v", i, got, model)
		}
		if got, want := b.Dropped(), uint64(i-len(model)); got != want {
			t.Fatalf("append %d: dropped %d, want %d", i, got, want)
		}
		if last, ok := b.Last(); !ok || !reflect.DeepEqual(last, model[len(model)-1]) {
			t.Fatalf("append %d: last %v", i, last)
		}
		for task := 0; task < 4; task++ {
			want, wantOK := Entry{}, false
			for k := len(model) - 1; k >= 0; k-- {
				if model[k].Task == task {
					want, wantOK = model[k], true
					break
				}
			}
			if got, ok := b.LastForTask(task); ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("append %d: LastForTask(%d) = %v, %v", i, task, got, ok)
			}
		}
		var dump strings.Builder
		for _, e := range model {
			fmt.Fprintf(&dump, "#%d t=%d task=%d %s\n", e.Seq, e.At, e.Task, e.Record)
		}
		if got := b.Dump(); got != dump.String() {
			t.Fatalf("append %d: dump %q, want %q", i, got, dump.String())
		}
	}

	// Eviction is amortized: once past the bound, appends average far
	// under one allocation each (evicting one entry per append by
	// copying the rest made at least one per append).
	big := NewJournal(64)
	r := Record{QM: "issue:TR", QS: "ready", SN: 1}
	for i := 0; i < 64; i++ {
		big.Append(uint64(i), 0, r)
	}
	const appends = 640
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < appends; i++ {
			big.Append(uint64(i), 0, r)
		}
	})
	if perAppend := allocs / appends; perAppend > 0.1 {
		t.Fatalf("%.3f allocations per append past the bound, want under 0.1", perAppend)
	}
}

func TestJournalEmptyLast(t *testing.T) {
	j := NewJournal(0)
	if _, ok := j.Last(); ok {
		t.Fatal("empty journal has Last")
	}
	for _, v := range []View{j.View(), {}} {
		if v.Len() != 0 || v.String() != "" {
			t.Fatalf("empty view %q", v.String())
		}
	}
}

func TestJournalSince(t *testing.T) {
	since := func(j *Journal, seq uint64) []Entry { return slices.Collect(j.View().Since(seq)) }
	j := NewJournal(0)
	for i := 1; i <= 10; i++ {
		j.Append(uint64(i), 0, Record{SN: i})
	}
	if got := since(j, 0); len(got) != 10 {
		t.Fatalf("Since(0) = %d entries", len(got))
	}
	got := since(j, 7)
	if len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("Since(7) = %v", got)
	}
	if got := since(j, 10); len(got) != 0 {
		t.Fatalf("Since(10) = %d entries", len(got))
	}
	if got := since(j, 99); len(got) != 0 {
		t.Fatalf("Since(99) = %d entries", len(got))
	}
	// Bounded journal: evicted entries are simply absent.
	b := NewJournal(3)
	for i := 1; i <= 10; i++ {
		b.Append(uint64(i), 0, Record{SN: i})
	}
	if got := since(b, 0); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("bounded Since(0) = %v", got)
	}
	// Breaking out of the range stops the scan.
	n := 0
	for range j.View().Since(0) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("scan ran %d entries past a break", n)
	}
}

func TestJournalJSONAndDump(t *testing.T) {
	j := NewJournal(0)
	j.Append(42, 1, Record{QM: "m1", QS: "ready", TP: []string{"TC", "TD"}, SN: 1, Sub: []string{"TD"}})
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back []Entry
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Record.QM != "m1" {
		t.Fatalf("round trip %v", back)
	}
	dump := j.Dump()
	if !strings.Contains(dump, "(m1, ready, TC->TD, 1, TD)") {
		t.Fatalf("dump %q", dump)
	}
}

// TestJournalKeepsRecordsExactly checks that the compact store gives
// back every record exactly as appended, whether its δS is the
// Remaining(TP, SN) the committer writes or anything else, and whatever
// its task and SN, and that views taken along the way stay frozen
// across chunk boundaries and evictions.
func TestJournalKeepsRecordsExactly(t *testing.T) {
	tp := []string{"TC", "TS", "TR", "TD"}
	record := func(i int) (int, Record) {
		sn := i % 6
		r := Record{QM: "issue:" + tp[i%len(tp)], QS: "ready", TP: tp, SN: sn, Sub: Remaining(tp, sn)}
		task := i % 3
		switch i % 7 {
		case 1:
			r.Sub = nil // δS left out
		case 2:
			r.Sub = []string{"TD"} // a δS that does not follow TP
		case 3:
			r.Sub = []string{} // empty but not nil
		case 4:
			r.SN = 1 << 40 // past 32 bits
		case 5:
			task = -1 << 35
		}
		return task, r
	}
	for _, limit := range []int{0, 5, 2*chunkLen + 3} {
		j := NewJournal(limit)
		var model []Entry
		type frozen struct {
			v    View
			want []Entry
		}
		var views []frozen
		for i := 1; i <= 4*chunkLen+5; i++ {
			task, r := record(i)
			j.Append(uint64(10*i), task, r)
			model = append(model, Entry{Seq: uint64(i), At: uint64(10 * i), Task: task, Record: r})
			if limit > 0 && len(model) > limit {
				model = model[1:]
			}
			if got := j.Entries(); !reflect.DeepEqual(got, model) {
				t.Fatalf("limit %d, append %d: entries\n%v\nwant\n%v", limit, i, got, model)
			}
			views = append(views, frozen{j.View(), slices.Clone(model)})
		}
		for k, f := range views {
			if got := slices.Collect(f.v.Since(0)); !reflect.DeepEqual(got, f.want) {
				t.Fatalf("limit %d: view %d changed to\n%v\nwant\n%v", limit, k, got, f.want)
			}
		}
		got, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("limit %d: JSON %s, want %s", limit, got, want)
		}
	}
	if got, err := json.Marshal(NewJournal(0)); err != nil || string(got) != "null" {
		t.Fatalf("empty journal encodes as %s, %v; want null", got, err)
	}
}

// Package recording implements the paper's Definition 2 — the state
// recording of concurrent processes in a master-slave system, the
// five-tuple (qm, qs, TP, SN, δS) — and the journal the bug detector
// consults. Figure 4's sample records CP1 = (m2, s1, p1->p2->p3, 2, p3)
// render exactly through Record.String.
package recording

import (
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Record is the Definition 2 five-tuple for one observed command.
type Record struct {
	// QM is the last state of the master process before it issued the
	// remote command.
	QM string `json:"qm"`
	// QS is the current state of the slave process.
	QS string `json:"qs"`
	// TP is the test pattern assigned to the slave process.
	TP []string `json:"tp"`
	// SN is the 1-based sequence number of the current state of the test
	// pattern.
	SN int `json:"sn"`
	// Sub is δS, the subsequence of the test pattern to be executed next.
	Sub []string `json:"sub"`
}

// String renders the record in the paper's notation, e.g.
// "(m2, s1, p1->p2->p3, 2, p3)".
func (r Record) String() string {
	return fmt.Sprintf("(%s, %s, %s, %d, %s)",
		r.QM, r.QS, strings.Join(r.TP, "->"), r.SN, strings.Join(r.Sub, "->"))
}

// Remaining returns δS computed from TP and SN: the suffix after the
// current position. It is the canonical value for Sub. The result shares
// tp's array, capped at its length so an append to it cannot reach tp.
func Remaining(tp []string, sn int) []string {
	if sn < 0 {
		sn = 0
	}
	if sn >= len(tp) {
		return nil
	}
	return tp[sn:len(tp):len(tp)]
}

// Entry is a journaled record with its provenance.
type Entry struct {
	Seq    uint64 `json:"seq"`  // global journal order
	At     uint64 `json:"at"`   // platform virtual time (cycles)
	Task   int    `json:"task"` // logical task index
	Record Record `json:"record"`
}

// Journal is a bounded in-order log of state records. The zero value is
// unbounded; use NewJournal for a bound.
//
// The journal stores entries compactly in fixed-size chunks, so an
// append never copies earlier entries. Stored entries are never
// modified: the journal writes only past its newest entry, and eviction
// only drops whole chunks from the front of its list. A View therefore
// stays frozen however far the journal moves on.
type Journal struct {
	chunks []*chunk // entry number base+i is chunks[i/chunkLen][i%chunkLen]
	base   uint64   // number of the first entry of chunks[0]
	limit  int
	seq    uint64 // entries appended so far; entry number n has Seq n+1
}

// chunkLen entries of 80 bytes fill one 1280-byte size class. A journal
// holds about a hundred records per trial, so a larger chunk would
// mostly stay empty.
const chunkLen = 16

type chunk [chunkLen]entry

// entry is how the journal stores an Entry. Its Seq follows from its
// position, and its δS is Remaining(TP, SN), as in every record the
// committer journals. A record whose δS is anything else, or whose task
// or SN does not fit in 32 bits, is kept whole in full.
type entry struct {
	at     uint64
	task   int32
	sn     int32
	qm, qs string
	tp     []string
	full   *Entry
}

// read returns the stored entry as the Entry numbered seq.
func (e *entry) read(seq uint64) Entry {
	if e.full != nil {
		return *e.full
	}
	return Entry{Seq: seq, At: e.at, Task: int(e.task), Record: Record{
		QM: e.qm, QS: e.qs, TP: e.tp, SN: int(e.sn), Sub: Remaining(e.tp, int(e.sn)),
	}}
}

// NewJournal returns a journal keeping at most limit entries (0 or
// negative keeps everything).
func NewJournal(limit int) *Journal {
	return &Journal{limit: limit}
}

// Append adds a record for the logical task at the given virtual time.
func (j *Journal) Append(at uint64, task int, r Record) {
	n := j.seq - j.base
	if n%chunkLen == 0 {
		// The last chunk is full. Drop the chunks that hold only evicted
		// entries; the array behind the list is left to any view that
		// shares it.
		for j.limit > 0 && j.seq+1-j.base >= uint64(j.limit)+chunkLen {
			j.chunks = j.chunks[1:]
			j.base += chunkLen
			n -= chunkLen
		}
		j.chunks = append(j.chunks, new(chunk))
	}
	e := &j.chunks[n/chunkLen][n%chunkLen]
	j.seq++
	if derivable(r) && int(int32(task)) == task && int(int32(r.SN)) == r.SN {
		*e = entry{at: at, task: int32(task), sn: int32(r.SN), qm: r.QM, qs: r.QS, tp: r.TP}
	} else {
		*e = entry{full: &Entry{Seq: j.seq, At: at, Task: task, Record: r}}
	}
}

// derivable reports whether r's δS is exactly Remaining(TP, SN), so
// that the journal can store r without it.
func derivable(r Record) bool {
	want := Remaining(r.TP, r.SN)
	if len(r.Sub) != len(want) || (r.Sub == nil) != (want == nil) {
		return false
	}
	return len(want) == 0 || &r.Sub[0] == &want[0] || slices.Equal(r.Sub, want)
}

// Len returns the number of retained entries.
func (j *Journal) Len() int { return j.View().Len() }

// Dropped returns the number of entries evicted by the bound.
func (j *Journal) Dropped() uint64 { return j.View().lo }

// Entries returns a copy of the retained entries in order.
func (j *Journal) Entries() []Entry {
	v := j.View()
	return slices.AppendSeq(make([]Entry, 0, v.Len()), v.Since(0))
}

// View returns a frozen, zero-copy view of the retained entries.
func (j *Journal) View() View {
	lo := j.base
	if j.limit > 0 && j.seq-lo > uint64(j.limit) {
		lo = j.seq - uint64(j.limit)
	}
	return View{chunks: j.chunks, base: j.base, lo: lo, hi: j.seq}
}

// Last returns the most recent entry, ok=false when empty.
func (j *Journal) Last() (Entry, bool) {
	v := j.View()
	if v.Len() == 0 {
		return Entry{}, false
	}
	return v.entry(v.hi - 1), true
}

// LastForTask returns the most recent entry for the logical task.
func (j *Journal) LastForTask(task int) (Entry, bool) {
	v := j.View()
	for n := v.hi; n > v.lo; n-- {
		if e := v.entry(n - 1); e.Task == task {
			return e, true
		}
	}
	return Entry{}, false
}

// PerTask splits the retained entries by logical task.
func (j *Journal) PerTask() map[int][]Entry {
	out := map[int][]Entry{}
	for e := range j.View().Since(0) {
		out[e.Task] = append(out[e.Task], e)
	}
	return out
}

// MarshalJSON encodes the journal as its entry list, for bug dumps; an
// empty journal encodes as null.
func (j *Journal) MarshalJSON() ([]byte, error) {
	if j.Len() == 0 {
		return []byte("null"), nil
	}
	return json.Marshal(j.Entries())
}

// Dump renders the journal in the paper's record notation, one per line,
// most recent last. It is the "related information to help users
// reproduce the bugs" the detector attaches to reports.
func (j *Journal) Dump() string { return j.View().String() }

// View is a frozen view of a journal's retained entries as they were
// when it was taken. It shares the journal's chunks instead of copying
// them, so taking one is free; rendering waits until String is called.
// The zero View is empty.
type View struct {
	chunks []*chunk
	base   uint64 // number of the first entry of chunks[0]
	lo, hi uint64 // the view holds entries numbered lo to hi-1
}

// entry returns the entry numbered n, which the view must hold.
func (v View) entry(n uint64) Entry {
	i := n - v.base
	return v.chunks[i/chunkLen][i%chunkLen].read(n + 1)
}

// Len returns the number of entries in the view.
func (v View) Len() int { return int(v.hi - v.lo) }

// Since yields the view's entries with Seq > seq, in order, without
// copying them — the incremental scan the bug detector's
// record-consistency check runs every interval.
func (v View) Since(seq uint64) iter.Seq[Entry] {
	return func(yield func(Entry) bool) {
		// Entry number n has Seq n+1, so the scan starts at number seq.
		for n := max(seq, v.lo); n < v.hi; n++ {
			if !yield(v.entry(n)) {
				return
			}
		}
	}
}

// String renders the view as Journal.Dump would have when the view was
// taken: one record per line in the paper's notation, most recent last.
func (v View) String() string {
	var sb strings.Builder
	for e := range v.Since(0) {
		fmt.Fprintf(&sb, "#%d t=%d task=%d %s\n", e.Seq, e.At, e.Task, e.Record)
	}
	return sb.String()
}

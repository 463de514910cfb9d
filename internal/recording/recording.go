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
// Appended entries are never modified in place: the journal writes only
// past its newest entry, and eviction copies the newest entries into a
// fresh array. A View therefore stays frozen however far the journal
// moves on.
type Journal struct {
	buf   []Entry // the retained entries are the newest limit of buf
	limit int
	seq   uint64
}

// NewJournal returns a journal keeping at most limit entries (0 or
// negative keeps everything).
func NewJournal(limit int) *Journal {
	return &Journal{limit: limit}
}

// Append adds a record for the logical task at the given virtual time.
func (j *Journal) Append(at uint64, task int, r Record) {
	j.seq++
	if j.limit > 0 && len(j.buf) == 2*j.limit {
		// Evict in one chunk: buf holds up to twice the bound, so one
		// copy of the newest limit entries pays for the next limit
		// appends. The old array is left to any view that shares it.
		fresh := make([]Entry, j.limit, 2*j.limit)
		copy(fresh, j.buf[j.limit:])
		j.buf = fresh
	}
	j.buf = append(j.buf, Entry{Seq: j.seq, At: at, Task: task, Record: r})
}

// retained returns the entries within the bound, oldest first.
func (j *Journal) retained() []Entry {
	if j.limit > 0 && len(j.buf) > j.limit {
		return j.buf[len(j.buf)-j.limit:]
	}
	return j.buf
}

// Len returns the number of retained entries.
func (j *Journal) Len() int { return len(j.retained()) }

// Dropped returns the number of entries evicted by the bound.
func (j *Journal) Dropped() uint64 { return j.seq - uint64(j.Len()) }

// Entries returns a copy of the retained entries in order.
func (j *Journal) Entries() []Entry {
	return append([]Entry{}, j.retained()...)
}

// View returns a frozen, zero-copy view of the retained entries.
func (j *Journal) View() View { return View{j.retained()} }

// Last returns the most recent entry, ok=false when empty.
func (j *Journal) Last() (Entry, bool) {
	es := j.retained()
	if len(es) == 0 {
		return Entry{}, false
	}
	return es[len(es)-1], true
}

// LastForTask returns the most recent entry for the logical task.
func (j *Journal) LastForTask(task int) (Entry, bool) {
	es := j.retained()
	for i := len(es) - 1; i >= 0; i-- {
		if es[i].Task == task {
			return es[i], true
		}
	}
	return Entry{}, false
}

// PerTask splits the retained entries by logical task.
func (j *Journal) PerTask() map[int][]Entry {
	out := map[int][]Entry{}
	for _, e := range j.retained() {
		out[e.Task] = append(out[e.Task], e)
	}
	return out
}

// MarshalJSON encodes the journal as its entry list, for bug dumps.
func (j *Journal) MarshalJSON() ([]byte, error) {
	return json.Marshal(j.retained())
}

// Dump renders the journal in the paper's record notation, one per line,
// most recent last. It is the "related information to help users
// reproduce the bugs" the detector attaches to reports.
func (j *Journal) Dump() string { return j.View().String() }

// View is a frozen view of a journal's retained entries as they were
// when it was taken. It shares the journal's array instead of copying
// it, so taking one is free; rendering waits until String is called.
// The zero View is empty.
type View struct {
	entries []Entry
}

// Len returns the number of entries in the view.
func (v View) Len() int { return len(v.entries) }

// Since yields the view's entries with Seq > seq, in order, without
// copying them — the incremental scan the bug detector's
// record-consistency check runs every interval.
func (v View) Since(seq uint64) iter.Seq[Entry] {
	// Entries are in ascending Seq order; binary search the boundary.
	lo, hi := 0, len(v.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.entries[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return func(yield func(Entry) bool) {
		for _, e := range v.entries[lo:] {
			if !yield(e) {
				return
			}
		}
	}
}

// String renders the view as Journal.Dump would have when the view was
// taken: one record per line in the paper's notation, most recent last.
func (v View) String() string {
	var sb strings.Builder
	for _, e := range v.entries {
		fmt.Fprintf(&sb, "#%d t=%d task=%d %s\n", e.Seq, e.At, e.Task, e.Record)
	}
	return sb.String()
}

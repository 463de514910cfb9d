package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/report"
)

func cellFor(i int) report.Cell {
	return report.Cell{
		ID:       fmt.Sprintf("w/op/n%ds8/pd/adaptive", i),
		Workload: "w", Tool: "adaptive", N: i, S: 8, Seed: uint64(i),
		Summary: report.CampaignSummary{Trials: 5, Bugs: i % 2, BugRate: float64(i%2) / 5},
		WallMS:  1.5,
	}
}

func key(i int) string { return fmt.Sprintf("key-%04d", i) }

func TestMemoryOnlyRoundtrip(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok || got.ID != cellFor(1).ID || got.Summary.Bugs != 1 {
		t.Fatalf("roundtrip lost the cell: %+v ok=%v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("counters off: %+v", st)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	s, _ := Open(Config{})
	_ = s.Put(key(1), cellFor(1))
	_ = s.Put(key(1), cellFor(1))
	if st := s.Stats(); st.Puts != 1 || st.MemEntries != 1 {
		t.Fatalf("duplicate put not deduplicated: %+v", st)
	}
}

func TestEvictedEntriesServeFromDisk(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEntries != 2 || st.DiskEntries != 10 {
		t.Fatalf("layers wrong after eviction: %+v", st)
	}
	// key(0) was evicted from the LRU long ago; the segment still has it.
	got, ok := s.Get(key(0))
	if !ok || got.N != 0 {
		t.Fatalf("evicted key lost: %+v ok=%v", got, ok)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("disk hit not counted as hit: %+v", st)
	}
}

func TestReopenServesEverythingEverWritten(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemEntries: 4, SegMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25 // tiny SegMaxBytes forces several rotations
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentIDs(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation to several segments, got %v", segs)
	}

	s2, err := Open(Config{Dir: dir, MemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskEntries != n {
		t.Fatalf("reopen lost records: %+v", st)
	}
	for i := 0; i < n; i++ {
		got, ok := s2.Get(key(i))
		if !ok || got.N != i {
			t.Fatalf("key %d lost across reopen: %+v ok=%v", i, got, ok)
		}
	}
	// New appends land after the replayed records, on a clean boundary.
	if err := s2.Put(key(n), cellFor(n)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key(n)); !ok {
		t.Fatal("post-reopen append lost")
	}
}

func TestReopenWithSmallerSegMaxKeepsRecords(t *testing.T) {
	// SegMaxBytes is a rotation knob, not a record bound: reopening with
	// a cap smaller than existing records must not classify them as
	// corrupt (which would truncate the segment and destroy data).
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()
	s2, err := Open(Config{Dir: dir, SegMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskEntries != 5 {
		t.Fatalf("records destroyed by smaller SegMaxBytes: %+v", st)
	}
}

func TestTornTailRecordIsTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage half-record at the tail.
	segs, _ := segmentIDs(dir)
	path := filepath.Join(dir, fmt.Sprintf("store-%06d.seg", segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskEntries != 3 {
		t.Fatalf("records before the tear lost: %+v", st)
	}
	// The tail was truncated, so the next append parses on reopen.
	if err := s2.Put(key(9), cellFor(9)); err != nil {
		t.Fatal(err)
	}
	_ = s2.Close()
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.Get(key(9)); !ok {
		t.Fatal("append after torn-tail recovery lost")
	}
}

// hugeClaimSegment is a 9-byte segment whose one record header claims
// a 60 MiB payload: a corrupt length field, or the first bytes of a
// large record torn by a crash.
func hugeClaimSegment() []byte {
	seg := make([]byte, recordHeaderLen+1)
	binary.LittleEndian.PutUint32(seg[0:4], 60<<20)
	return seg
}

// TestTornHugeClaimAllocatesNothingOnOpen pins that replay checks a
// record's claimed length against what the segment holds before it
// allocates the payload: Open treats the claim as a torn tail, allocates
// well under a MiB doing so, and truncates the segment to 0 bytes.
func TestTornHugeClaimAllocatesNothingOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := segFile(dir, 1)
	if err := os.WriteFile(path, hugeClaimSegment(), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(Config{Dir: dir})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a 9-byte segment, want under 1 MiB", n)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 {
		t.Fatalf("segment after Open: %v, %v; want truncated to 0 bytes", st, err)
	}
}

func TestTornTailAtSegmentRotationBoundary(t *testing.T) {
	// The nastiest torn-tail shape: the crash lands exactly at a
	// rotation boundary — the LAST record of a now-full segment is torn,
	// and the NEXT segment already exists with intact records. Recovery
	// must keep everything except the one torn record: the torn segment
	// is a middle segment (not the active one), so it is not truncated,
	// merely scanned up to the tear, and the later segment's records all
	// survive.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25 // forces several rotations at 256-byte segments
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentIDs(dir)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %v", segs)
	}
	full := segs[len(segs)-2] // a full, rotated-away segment

	// Identify the keys in the full segment and tear its LAST record by
	// chopping half of it off.
	f, err := os.Open(segFile(dir, full))
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		key string
		off int64
		n   int
	}
	var recs []rec
	if _, _, err := walkRecords(f, func(k string, off int64, n int, _ recMeta) {
		recs = append(recs, rec{k, off, n})
	}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if len(recs) < 2 {
		t.Fatalf("full segment has %d records, need >= 2", len(recs))
	}
	last := recs[len(recs)-1]
	if err := os.Truncate(segFile(dir, full), last.off+int64(last.n)/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, SegMaxBytes: 256})
	if err != nil {
		t.Fatalf("torn rotation boundary must not fail open: %v", err)
	}
	// Exactly one record is gone: the torn one.
	if st := s2.Stats(); st.DiskEntries != n-1 {
		t.Fatalf("disk entries = %d, want %d (only the torn record lost)", st.DiskEntries, n-1)
	}
	if _, ok := s2.Get(last.key); ok {
		t.Fatalf("torn record %s still served", last.key)
	}
	for i := 0; i < n; i++ {
		if key(i) == last.key {
			continue
		}
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("key %d lost (only %s was torn)", i, last.key)
		}
	}
	// New appends land on the active segment, untouched by the tear.
	if err := s2.Put(key(n), cellFor(n)); err != nil {
		t.Fatal(err)
	}
	// The middle segment is not truncated on open — the dead half-record
	// is reclaimable garbage...
	if got := s2.Reclaimable(); got <= 0 {
		t.Fatalf("torn middle-segment bytes not reclaimable: %d", got)
	}
	// ...which compaction removes for good.
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Reclaimable(); got != 0 {
		t.Fatalf("reclaimable after compact = %d", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.DiskEntries != n {
		t.Fatalf("entries after tear+append+compact+reopen = %d, want %d", st.DiskEntries, n)
	}
}

func TestDirectoryLockIsExclusive(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second Open on a live store directory must fail")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open after Close must succeed: %v", err)
	}
	_ = s2.Close()
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), MemEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 20)
				if _, ok := s.Get(k); !ok {
					_ = s.Put(k, cellFor(i%20))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.DiskEntries != 20 {
		t.Fatalf("concurrent puts produced %d disk entries, want 20", st.DiskEntries)
	}
}

func TestStorePutBatchSingleFsyncAndDurability(t *testing.T) {
	// The group-commit contract: one PutBatch of N cells costs one fsync,
	// as does one Flush after N single Puts, and every cell survives a
	// reopen.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var entries []CellEntry
	for i := 0; i < 10; i++ {
		entries = append(entries, CellEntry{Key: key(i), Cell: cellFor(i)})
	}
	if err := s.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Syncs != 1 {
		t.Fatalf("batch of 10 cost %d fsyncs, want 1", st.Syncs)
	}
	if st.Puts != 10 || st.DiskEntries != 10 {
		t.Fatalf("batch accounting wrong: %+v", st)
	}
	// Single puts append without an fsync; one Flush covers them all.
	if err := s.Put(key(10), cellFor(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(11), cellFor(11)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 1 {
		t.Fatalf("2 single puts after the batch: syncs = %d, want 1", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Fatalf("a flush after 2 single puts: syncs = %d, want 2", got)
	}
	// Re-batching known keys is a no-op (content addressing).
	if err := s.PutBatch(entries[:3]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Fatalf("no-op re-batch still fsynced: syncs = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 12; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("key %d lost across reopen after batch commit", i)
		}
	}
}

// waitFor polls cond briefly — for the handful of spots where a

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
)

// syncsOf returns the store's fsync count so far.
func syncsOf(s *Store) uint64 { return s.Stats().Syncs }

func openDisk(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestFlushGetSyncsUnsyncedRecordOnce: a Put appends without an fsync,
// and the first Get of a record no fsync covers syncs the segment, from
// the memory layer and from disk alike; later Gets do not sync again.
func TestFlushGetSyncsUnsyncedRecordOnce(t *testing.T) {
	s := openDisk(t, Config{MemEntries: 1})
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncsOf(s); got != 0 {
		t.Fatalf("two puts cost %d fsyncs, want 0", got)
	}
	// key(0) left the one-entry memory layer: this Get reads the segment.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("miss on a put key")
	}
	if got := syncsOf(s); got != 1 {
		t.Fatalf("a Get of an unsynced record cost %d fsyncs, want 1", got)
	}
	for _, i := range []int{0, 1, 0} {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("miss on key %d", i)
		}
	}
	if got := syncsOf(s); got != 1 {
		t.Fatalf("Gets of synced records raised fsyncs to %d, want 1", got)
	}
	if err := s.Put(key(2), cellFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); !ok { // a memory-layer hit
		t.Fatal("miss on a put key")
	}
	if got := syncsOf(s); got != 2 {
		t.Fatalf("a Get of a fresh unsynced record: %d fsyncs, want 2", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := syncsOf(s); got != 2 {
		t.Fatalf("a Flush with nothing unsynced raised fsyncs to %d, want 2", got)
	}
}

// TestFlushRotationAndBatchSync: rotation syncs the segment it retires
// before it opens the next, and every PutBatch still costs one fsync.
func TestFlushRotationAndBatchSync(t *testing.T) {
	t.Run("rotation", func(t *testing.T) {
		// Any record fills a one-byte segment: every append after the
		// first retires the active segment.
		s := openDisk(t, Config{SegMaxBytes: 1})
		for i := 0; i < 3; i++ {
			if err := s.Put(key(i), cellFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := syncsOf(s); got != 2 {
			t.Fatalf("three puts over two rotations cost %d fsyncs, want 2", got)
		}
		// The retired segments' records need no further sync.
		for i := 0; i < 2; i++ {
			if _, ok := s.Get(key(i)); !ok {
				t.Fatalf("miss on key %d", i)
			}
		}
		if got := syncsOf(s); got != 2 {
			t.Fatalf("Gets from retired segments raised fsyncs to %d, want 2", got)
		}
	})
	t.Run("batches", func(t *testing.T) {
		s := openDisk(t, Config{})
		for b := 0; b < 3; b++ {
			var entries []CellEntry
			for i := 0; i < 4; i++ {
				entries = append(entries, CellEntry{Key: key(4*b + i), Cell: cellFor(i)})
			}
			if err := s.PutBatch(entries); err != nil {
				t.Fatal(err)
			}
			if got := syncsOf(s); got != uint64(b+1) {
				t.Fatalf("after %d batches: %d fsyncs, want %d", b+1, got, b+1)
			}
		}
	})
}

// TestFlushCopyReopensByteIdentical: a copy of the store directory
// taken right after Flush, with the store still open, reopens with
// every record: the same segment bytes and the same cells.
func TestFlushCopyReopensByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, Config{Dir: dir, SegMaxBytes: 2048})
	const n = 12
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "store-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v (%v), want a rotated log", segs, err)
	}
	cp := t.TempDir()
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := openDisk(t, Config{Dir: cp})
	if got := syncsOf(c); got != 1 {
		t.Fatalf("opening the copy cost %d fsyncs, want 1: Open syncs the active segment it replays", got)
	}
	if got := c.Stats().DiskEntries; got != n {
		t.Fatalf("the copy replays %d records, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		got, ok := c.Get(key(i))
		if !ok {
			t.Fatalf("the copy misses key %d", i)
		}
		want := cellFor(i)
		gb, err := report.AppendCell(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := report.AppendCell(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("key %d reads back\n%s\nwant\n%s", i, gb, wb)
		}
	}
	for _, seg := range segs {
		orig, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := os.ReadFile(filepath.Join(cp, filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, copied) {
			t.Fatalf("segment %s changed when the copy reopened", filepath.Base(seg))
		}
	}
}

// TestFlushCloseLifecycle: Close syncs what Puts left unsynced and is
// idempotent; after it, Put and PutBatch fail and Flush returns nil.
func TestFlushCloseLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncsOf(s); got != 1 {
		t.Fatalf("Close after an unsynced put: %d fsyncs, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if err := s.Put(key(2), cellFor(2)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if err := s.PutBatch([]CellEntry{{Key: key(3), Cell: cellFor(3)}}); err == nil {
		t.Fatal("PutBatch after Close succeeded")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v, want nil", err)
	}
	if got := syncsOf(s); got != 1 {
		t.Fatalf("calls after Close raised fsyncs to %d, want 1", got)
	}
	r := openDisk(t, Config{Dir: dir})
	if r.Stats().DiskEntries != 1 {
		t.Fatalf("reopened store holds %d records, want 1", r.Stats().DiskEntries)
	}
}

// Write-through batcher tests: the Remote client's Put coalescing and
// the flush triggers (size, delay, explicit Flush, Close). The local
// Store's group-commit fsync contract is pinned here too, via
// Stats().Syncs.
package store

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
)

func newBatchRemote(t *testing.T, baseURL string, size int, delay time.Duration, wall clock.Wall) *Remote {
	t.Helper()
	r, err := OpenRemote(RemoteConfig{
		BaseURL: baseURL, BatchSize: size, BatchDelay: delay, Clock: wall, Retries: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestRemoteBatcherFlushesAtSize(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	// A long delay isolates the size trigger: only the third Put flushes.
	r := newBatchRemote(t, ts.URL, 3, time.Hour, nil)
	for i := 0; i < 3; i++ {
		if err := r.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fake.batches.Load(); got != 1 {
		t.Fatalf("batch POSTs = %d, want 1", got)
	}
	if got := fake.batchCells.Load(); got != 3 {
		t.Fatalf("batched cells = %d, want 3", got)
	}
	if got := r.BatchPending(); got != 0 {
		t.Fatalf("pending after size flush = %d", got)
	}
	// The hub really holds all three.
	fake.mu.Lock()
	stored := len(fake.cells)
	fake.mu.Unlock()
	if stored != 3 {
		t.Fatalf("hub stored %d cells, want 3", stored)
	}
}

func TestRemoteBatcherFlushesOnDelay(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	fw := clock.NewFakeWall(time.Unix(1_700_000_000, 0))
	r := newBatchRemote(t, ts.URL, 100, 50*time.Millisecond, fw)
	if err := r.Put(key(0), cellFor(0)); err != nil {
		t.Fatal(err)
	}
	if got := fake.batches.Load(); got != 0 {
		t.Fatal("batch flushed before the delay elapsed")
	}
	// The enqueue armed a timer on the fake clock; firing it flushes the
	// lone entry.
	waitFor(t, func() bool { return fw.Waiters() == 1 }, "delay timer never armed")
	fw.Advance(50 * time.Millisecond)
	waitFor(t, func() bool { return fake.batches.Load() == 1 }, "delay flush never fired")
	if got := fake.batchCells.Load(); got != 1 {
		t.Fatalf("delay flush carried %d cells, want 1", got)
	}
	if got := r.BatchPending(); got != 0 {
		t.Fatalf("pending after delay flush = %d", got)
	}
}

func TestRemoteBatcherFlushAndCloseDrain(t *testing.T) {
	fake := newFakeCellServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	r := newBatchRemote(t, ts.URL, 100, time.Hour, nil)
	for i := 0; i < 4; i++ {
		if err := r.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil { // the job-end barrier
		t.Fatal(err)
	}
	if fake.batches.Load() != 1 || fake.batchCells.Load() != 4 {
		t.Fatalf("explicit flush: %d batches / %d cells, want 1/4", fake.batches.Load(), fake.batchCells.Load())
	}

	// Close drains whatever queued after the flush.
	if err := r.Put(key(9), cellFor(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if fake.batches.Load() != 2 || fake.batchCells.Load() != 5 {
		t.Fatalf("close flush: %d batches / %d cells, want 2/5", fake.batches.Load(), fake.batchCells.Load())
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
// goroutine hand-off (not wall time) is what's awaited.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

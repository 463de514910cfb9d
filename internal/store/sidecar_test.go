package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// readSidecar decodes the stats.json sidecar in dir.
func readSidecar(dir string) (Counters, error) {
	var c Counters
	data, err := os.ReadFile(filepath.Join(dir, statsSidecar))
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	return c, err
}

// within fails the test unless ch is closed within 10 s.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10 s", what)
	}
}

// heldSidecar replaces s's sidecar writer with one that records every
// write and holds the first until release is closed; entered is closed
// once that first write is held.
type heldSidecar struct {
	entered, release chan struct{}
	once             sync.Once
	mu               sync.Mutex
	writes           []Counters
}

func holdSidecar(s *Store) *heldSidecar {
	h := &heldSidecar{entered: make(chan struct{}), release: make(chan struct{})}
	s.writeSidecar = func(name string, data []byte, perm os.FileMode) error {
		h.once.Do(func() {
			close(h.entered)
			<-h.release
		})
		var c Counters
		_ = json.Unmarshal(data, &c)
		h.mu.Lock()
		h.writes = append(h.writes, c)
		h.mu.Unlock()
		return os.WriteFile(name, data, perm)
	}
	return h
}

func (h *heldSidecar) recorded() []Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Counters(nil), h.writes...)
}

func TestStatsFlushSurvivesCrashWithoutClose(t *testing.T) {
	// The sidecar used to be written on Close only — a SIGKILLed daemon
	// lost its whole session's counters. Now every statsFlushEvery
	// operations kick the flusher, so a crash loses at most the tail.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < statsFlushEvery; i++ {
		s.Get(key(1))
	}
	// No Close — simulate the crash by reading the sidecar as the
	// flusher leaves it, waiting at most 5 s for its rewrite.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := readSidecar(dir)
		if err == nil && c.Puts == 1 && c.Hits >= uint64(statsFlushEvery)-1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sidecar 5 s after the %dth operation: %+v, %v; want 1 put and at least %d hits", statsFlushEvery, c, err, statsFlushEvery-1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSidecarWriteBlocksNoGet holds the periodic sidecar write inside
// a hook and shows that the operation which made it due returns
// meanwhile, and so do a later Get, Put and PutBatch: the write runs
// on the store's flusher, never on a caller's goroutine.
func TestSidecarWriteBlocksNoGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), cellFor(1)); err != nil {
		t.Fatal(err)
	}
	h := holdSidecar(s)
	due := make(chan struct{})
	go func() {
		defer close(due)
		for i := 1; i < statsFlushEvery; i++ { // the Put was the first operation
			s.Get(key(1))
		}
	}()
	within(t, h.entered, "the sidecar write")
	within(t, due, "the operation that made the sidecar write due")
	ops := []struct {
		name string
		run  func() error
	}{
		{"Get", func() error {
			if _, ok := s.Get(key(1)); !ok {
				t.Error("Get missed a stored key")
			}
			return nil
		}},
		{"Put", func() error { return s.Put(key(2), cellFor(2)) }},
		{"PutBatch", func() error { return s.PutBatch([]CellEntry{{Key: key(3), Cell: cellFor(3)}}) }},
	}
	for _, op := range ops {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := op.run(); err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
		}()
		within(t, done, op.name+" while the sidecar write is held")
	}
	close(h.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := readSidecar(dir); err != nil || c.Puts != 3 || c.Hits != uint64(statsFlushEvery) {
		t.Fatalf("sidecar after Close: %+v, %v; want 3 puts and %d hits", c, err, statsFlushEvery)
	}
}

// TestSidecarFlusherLifecycle: Close joins a flusher whose write is held
// and has a kick pending, writes the final counters last, and leaves no
// goroutine behind; a second Close returns nil, and Flush and Get after
// Close behave as they always have, kicking nothing.
func TestSidecarFlusherLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	mem, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a memory store started %d goroutines; it has no sidecar", n-before)
	}
	_ = mem.Close()

	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := holdSidecar(s)
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	due := make(chan struct{})
	go func() {
		defer close(due)
		for i := 2; i < 2*statsFlushEvery; i++ {
			s.Get(key(1))
			if i == statsFlushEvery-1 {
				<-h.entered
			}
		}
	}()
	within(t, h.entered, "the first sidecar write")
	// The second boundary, passed while the write is held, leaves a
	// kick pending.
	within(t, due, "lookups while the sidecar write is held")
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the flusher's write was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the held write was released")
	}
	final := s.Lifetime()
	if final.Puts != 2 || final.Hits != 2*statsFlushEvery-2 {
		t.Fatalf("lifetime counters %+v", final)
	}
	writes := h.recorded()
	if len(writes) < 2 || writes[len(writes)-1] != final {
		t.Fatalf("sidecar writes %+v: want the final counters %+v written last", writes, final)
	}
	for i := 1; i < len(writes); i++ {
		if writes[i].Hits < writes[i-1].Hits {
			t.Fatalf("sidecar writes went back in time: %+v", writes)
		}
	}
	if c, err := readSidecar(dir); err != nil || c != final {
		t.Fatalf("sidecar after Close: %+v, %v; want %+v", c, err, final)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	// key(1) is the one-entry memory layer's: served from memory as
	// always. key(0) lives only in a closed segment: a miss. Enough of
	// them to pass two flush boundaries, which kick no one.
	for i := 0; i < statsFlushEvery; i++ {
		if _, ok := s.Get(key(1)); !ok {
			t.Fatal("Get after Close missed the memory layer's key")
		}
		if _, ok := s.Get(key(0)); ok {
			t.Fatal("Get after Close read a closed segment")
		}
	}
	if err := s.Put(key(2), cellFor(2)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if n := len(h.recorded()); n != len(writes) {
		t.Fatalf("%d sidecar writes after Close", n-len(writes))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close (had %d before Open)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

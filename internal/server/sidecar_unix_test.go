//go:build unix

package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// TestWarmJobsCompleteWhileSidecarWriteHeld runs 512 warm jobs, twice
// the store's 256-operation sidecar cadence in jobs and twelve times it
// in lookups, while the store's stats.json rewrite is held: its temp
// file is a FIFO, so the write blocks opening it until the test opens
// the read end. Every job must finish first, because no lookup waits
// on the sidecar. The held write then carries its counters through,
// and Close leaves the final ones.
func TestWarmJobsCompleteWhileSidecarWriteHeld(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "stats.json.tmp")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("no FIFO here: %v", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	cli := NewClient(ts.URL)

	const jobs = 512
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	finished := make(chan struct{})
	var held []byte
	defer func() {
		cancel()
		// A run that failed before its held write was read may leave
		// that write, or Close's final one, waiting on the FIFO for a
		// reader. This read end opens without waiting for a writer and
		// stays open until the store has closed, so the cleanup cannot
		// block.
		if held == nil {
			if f, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil {
				defer f.Close()
			}
		}
		<-finished
		ts.Close()
		s.Drain()
		_ = st.Close()
	}()
	go func() {
		defer close(finished)
		for i := 0; i <= jobs; i++ { // the first job stores the six cells
			info, err := cli.Submit(ctx, strings.NewReader(warmSpec), 0)
			if err == nil {
				info, err = cli.Watch(ctx, info.ID, nil)
			}
			if err == nil && (info.Status != JobDone || (i > 0 && info.StoreHits != 6)) {
				t.Errorf("job %s: %s with %d store hits", info.ID, info.Status, info.StoreHits)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("warm jobs waited behind the held sidecar write")
	}
	// Opening the FIFO's read end lets the held write through.
	heldc := make(chan []byte, 1)
	go func() {
		var data []byte
		if f, err := os.Open(fifo); err == nil {
			data, _ = io.ReadAll(f)
			_ = f.Close()
		}
		heldc <- data
	}()
	select {
	case held = <-heldc:
	case <-time.After(30 * time.Second):
		t.Fatal("no sidecar write was made in the jobs' lookups")
	}
	var c store.Counters
	if err := json.Unmarshal(held, &c); err != nil {
		t.Fatalf("the held sidecar write carried %q: %v", held, err)
	}
	ts.Close()
	s.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	var final store.Counters
	if err := json.Unmarshal(data, &final); err != nil || final.Hits != 6*jobs || final.Puts != 6 {
		t.Fatalf("final sidecar %s (%v): want %d hits and 6 puts", data, err, 6*jobs)
	}
	t.Logf("the held write carried %d hits; the jobs made %d", c.Hits, final.Hits)
}

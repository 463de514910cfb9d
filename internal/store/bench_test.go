package store

import (
	"fmt"
	"testing"
)

// Store hot-path benches: Get and Put sit on every cell of every warm
// sweep, Compact on the GC path. CI runs them with -benchtime=1x as a
// smoke so a regression (an accidental O(segments) scan in Get, say)
// shows up in the bench step, and a multicore host can -bench=Store
// for real numbers.

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStoreGet(b *testing.B) {
	const n = 1024
	s := benchStore(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key(i % n)); !ok {
			b.Fatal("miss on a stored key")
		}
	}
}

// BenchmarkStorePut measures one durable single put: a Put and the
// Flush that syncs it, as a run of one cell pays.
func BenchmarkStorePut(b *testing.B) {
	s := benchStore(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench-%08d", i), cellFor(i)); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreCompact(b *testing.B) {
	const n = 512
	s := benchStore(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutBatch measures the group-commit write path:
// batchCells cells per PutBatch, one fsync each. Compare ns/op against
// batchCells× BenchmarkStorePut to see the fsync collapse.
func BenchmarkStorePutBatch(b *testing.B) {
	const batchCells = 16
	s := benchStore(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := make([]CellEntry, batchCells)
		for j := range entries {
			entries[j] = CellEntry{Key: fmt.Sprintf("bench-%08d-%02d", i, j), Cell: cellFor(j)}
		}
		if err := s.PutBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batchCells, "cells/op")
	b.ReportMetric(float64(s.Stats().Syncs)/float64(b.N), "fsyncs/op")
}

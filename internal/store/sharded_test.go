// Sharded hub-tier tests: rendezvous placement (deterministic, spread,
// minimal remap), request routing, and per-shard failure isolation.
package store

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func newSharded(t *testing.T, cfg ShardedConfig) *Sharded {
	t.Helper()
	s, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestOpenShardedValidatesURLs(t *testing.T) {
	if _, err := OpenSharded(ShardedConfig{}); err == nil {
		t.Fatal("no URLs accepted")
	}
	if _, err := OpenSharded(ShardedConfig{BaseURLs: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate URL accepted")
	}
}

func TestShardedRendezvousPlacement(t *testing.T) {
	urls := []string{"http://hub-a:8321", "http://hub-b:8321", "http://hub-c:8321"}
	s := newSharded(t, ShardedConfig{BaseURLs: urls})

	// Deterministic: the same key always ranks the same shard, and the
	// ranking ignores the order URLs were listed in.
	reordered := newSharded(t, ShardedConfig{BaseURLs: []string{urls[2], urls[0], urls[1]}})
	perShard := map[string]int{}
	const n = 300
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cell-%04d", i)
		owner := s.ShardFor(k)
		if again := s.ShardFor(k); again != owner {
			t.Fatalf("key %s moved shards between calls: %s vs %s", k, owner, again)
		}
		if other := reordered.ShardFor(k); other != owner {
			t.Fatalf("key %s placement depends on URL order: %s vs %s", k, owner, other)
		}
		perShard[owner]++
	}
	// Spread: rendezvous over 3 shards lands every shard a healthy share.
	for _, u := range urls {
		if perShard[u] < n/6 {
			t.Fatalf("shard %s owns only %d of %d keys: %v", u, perShard[u], n, perShard)
		}
	}

	// Minimal remap: removing one shard moves ONLY the keys it owned.
	two := newSharded(t, ShardedConfig{BaseURLs: []string{urls[0], urls[1]}})
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cell-%04d", i)
		before, after := s.ShardFor(k), two.ShardFor(k)
		if before != urls[2] && after != before {
			t.Fatalf("key %s moved from surviving shard %s to %s when %s left", k, before, after, urls[2])
		}
	}
}

func TestShardedRoutesToOwningShard(t *testing.T) {
	fakes := []*fakeCellServer{newFakeCellServer(), newFakeCellServer()}
	var urls []string
	for _, f := range fakes {
		ts := httptest.NewServer(f.handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	s := newSharded(t, ShardedConfig{BaseURLs: urls})

	byURL := map[string]*fakeCellServer{urls[0]: fakes[0], urls[1]: fakes[1]}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("cell-%04d", i)
		if err := s.Put(k, cellFor(i)); err != nil {
			t.Fatal(err)
		}
		owner := byURL[s.ShardFor(k)]
		owner.mu.Lock()
		_, stored := owner.cells[k]
		owner.mu.Unlock()
		if !stored {
			t.Fatalf("key %s not on its rendezvous owner", k)
		}
		if got, ok := s.Get(k); !ok || got.ID != cellFor(i).ID {
			t.Fatalf("key %s unreadable through the sharded client", k)
		}
	}
	// Both hubs hold a non-empty, disjoint share.
	fakes[0].mu.Lock()
	a := len(fakes[0].cells)
	fakes[0].mu.Unlock()
	fakes[1].mu.Lock()
	b := len(fakes[1].cells)
	fakes[1].mu.Unlock()
	if a == 0 || b == 0 || a+b != 20 {
		t.Fatalf("shard split %d/%d, want a disjoint 20 total", a, b)
	}
}

func TestShardedPutBatchSplitsByOwner(t *testing.T) {
	fakes := []*fakeCellServer{newFakeCellServer(), newFakeCellServer()}
	var urls []string
	for _, f := range fakes {
		ts := httptest.NewServer(f.handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	s := newSharded(t, ShardedConfig{BaseURLs: urls})

	var entries []CellEntry
	for i := 0; i < 16; i++ {
		entries = append(entries, CellEntry{Key: fmt.Sprintf("cell-%04d", i), Cell: cellFor(i)})
	}
	if err := s.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	// One wire batch per shard, carrying exactly its keys.
	if fakes[0].batches.Load() != 1 || fakes[1].batches.Load() != 1 {
		t.Fatalf("batches per shard = %d/%d, want 1/1", fakes[0].batches.Load(), fakes[1].batches.Load())
	}
	if total := fakes[0].batchCells.Load() + fakes[1].batchCells.Load(); total != 16 {
		t.Fatalf("batched cells total %d, want 16", total)
	}
	for _, e := range entries {
		if _, ok := s.Get(e.Key); !ok {
			t.Fatalf("key %s lost in the sharded batch", e.Key)
		}
	}
}

func TestShardedDeadShardDegradesOnlyItsKeys(t *testing.T) {
	fake := newFakeCellServer()
	live := httptest.NewServer(fake.handler())
	t.Cleanup(live.Close)
	// A dead hub: refused connections, instantly.
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	s := newSharded(t, ShardedConfig{
		BaseURLs: []string{live.URL, deadURL},
		Retries:  0, BreakerThreshold: 1,
	})
	liveKeys, deadKeys := 0, 0
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("cell-%04d", i)
		if s.ShardFor(k) == live.URL {
			liveKeys++
			if err := s.Put(k, cellFor(i)); err != nil {
				t.Fatalf("put to the live shard failed: %v", err)
			}
			if _, ok := s.Get(k); !ok {
				t.Fatalf("live shard key %s unreadable", k)
			}
		} else {
			deadKeys++
			// The dead shard's keys degrade to miss — compute locally —
			// without erroring the whole tier.
			if _, ok := s.Get(k); ok {
				t.Fatalf("dead shard conjured key %s", k)
			}
		}
	}
	if liveKeys == 0 || deadKeys == 0 {
		t.Fatalf("degenerate split %d/%d — test needs keys on both shards", liveKeys, deadKeys)
	}
	if !s.Degraded() {
		t.Fatal("tier with a dead shard not reporting degraded")
	}
	states := s.BreakerStates()
	if len(states) != 2 || states[0] != "closed" {
		t.Fatalf("breaker states = %v, want the live shard closed", states)
	}
	if states[1] == "closed" {
		t.Fatalf("dead shard's breaker still closed: %v", states)
	}
}

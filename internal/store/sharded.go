// Sharded spreads the fleet's shared cache horizontally over several
// hub daemons with zero server-side coordination: every client ranks
// the hubs for a cell key by rendezvous (highest-random-weight)
// hashing, so all clients independently agree on which hub owns which
// key, and adding or removing a hub only remaps the keys it owned —
// the consistent-hashing property without a ring to maintain. Each
// shard is a full Remote client underneath, so the per-shard breaker,
// retry budget and write-through batcher all apply: a dead hub
// degrades exactly 1/M of the key space to compute-locally while the
// other shards keep serving. Every key has one owner, and only the
// owner is ever asked for it.
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"repro/internal/clock"
	"repro/internal/eventlog"
	"repro/internal/report"
)

// ShardedConfig configures a sharded hub-tier client. The per-shard
// wire knobs mirror RemoteConfig and apply to every shard alike.
type ShardedConfig struct {
	// BaseURLs are the hub daemons, one shard each. Order is
	// irrelevant to key placement (the hash ranks by URL string), but
	// every client of one fleet must use the same URL strings.
	BaseURLs []string
	// MemEntries caps each shard's in-process LRU front (default 4096).
	// Keys route to exactly one shard, so the fronts hold disjoint key
	// sets; total in-process cache is ~len(BaseURLs)×MemEntries.
	MemEntries int
	// HTTPClient, APIKey, Retries, RetryBase, BreakerThreshold,
	// BreakerCooldown, BatchSize, BatchDelay and Clock pass through to
	// every shard's RemoteConfig.
	HTTPClient       *http.Client
	APIKey           string
	Retries          int
	RetryBase        time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	BatchSize        int
	BatchDelay       time.Duration
	Clock            clock.Wall
}

// Sharded implements CellStore over multiple hub URLs.
type Sharded struct {
	urls   []string
	shards []*Remote
}

// OpenSharded builds one Remote per base URL. Like OpenRemote it does
// not probe the hubs — each shard degrades independently until its hub
// answers.
func OpenSharded(cfg ShardedConfig) (*Sharded, error) {
	if len(cfg.BaseURLs) == 0 {
		return nil, fmt.Errorf("store: sharded store needs at least one base URL")
	}
	seen := map[string]bool{}
	s := &Sharded{}
	for _, u := range cfg.BaseURLs {
		if seen[u] {
			return nil, fmt.Errorf("store: duplicate shard URL %q", u)
		}
		seen[u] = true
		r, err := OpenRemote(RemoteConfig{
			BaseURL: u, MemEntries: cfg.MemEntries, HTTPClient: cfg.HTTPClient,
			APIKey: cfg.APIKey, Retries: cfg.Retries, RetryBase: cfg.RetryBase,
			BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
			BatchSize: cfg.BatchSize, BatchDelay: cfg.BatchDelay, Clock: cfg.Clock,
		})
		if err != nil {
			return nil, err
		}
		s.urls = append(s.urls, u)
		s.shards = append(s.shards, r)
	}
	return s, nil
}

// mix64 finalizes a raw hash with a full avalanche (the MurmurHash3
// fmix64 constants): FNV alone leaves a short key suffix visible only
// in the low bits, so raw FNV scores order by URL for every key and
// one shard owns everything. Avalanched, a one-bit input change flips
// every output bit with probability ~1/2, which is what rendezvous
// ranking needs.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the index of the shard that owns key by rendezvous
// hashing: score every (shard URL, key) pair, the highest score wins.
func (s *Sharded) owner(key string) int {
	var best uint64
	owner := 0
	for i, u := range s.urls {
		h := fnv.New64a()
		_, _ = h.Write([]byte(u))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(key))
		if score := mix64(h.Sum64()); i == 0 || score > best {
			owner, best = i, score
		}
	}
	return owner
}

// ShardFor reports which base URL owns key — operators debugging
// placement, and tests pinning the rendezvous ranking.
func (s *Sharded) ShardFor(key string) string { return s.urls[s.owner(key)] }

// Get asks the key's owning shard.
func (s *Sharded) Get(key string) (report.Cell, bool) { return s.shards[s.owner(key)].Get(key) }

// Put routes the cell to its owning shard (through that shard's
// write-through batcher, when enabled).
func (s *Sharded) Put(key string, cell report.Cell) error {
	return s.shards[s.owner(key)].Put(key, cell)
}

// PutBatch splits the batch by owning shard and hands each hub its
// sub-batch.
func (s *Sharded) PutBatch(entries []CellEntry) error {
	groups := map[int][]CellEntry{}
	for _, e := range entries {
		p := s.owner(e.Key)
		groups[p] = append(groups[p], e)
	}
	var errs []error
	for i, g := range groups {
		if err := s.shards[i].PutBatch(g); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush pushes every shard's queued write-through entries.
func (s *Sharded) Flush() error {
	var errs []error
	for _, sh := range s.shards {
		if err := sh.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats sums the per-shard session counters.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		one := sh.Stats()
		st.Hits += one.Hits
		st.Misses += one.Misses
		st.Puts += one.Puts
		st.Syncs += one.Syncs
		st.MemEntries += one.MemEntries
		st.DiskEntries += one.DiskEntries
	}
	return st
}

// Lifetime sums the per-shard session counters (remote clients keep no
// sidecar history).
func (s *Sharded) Lifetime() Counters {
	var c Counters
	for _, sh := range s.shards {
		one := sh.Lifetime()
		c.Hits += one.Hits
		c.Misses += one.Misses
		c.Puts += one.Puts
	}
	return c
}

// Degraded reports whether any shard's breaker is not closed — part of
// the key space is degraded to compute-locally.
func (s *Sharded) Degraded() bool {
	for _, sh := range s.shards {
		if sh.Degraded() {
			return true
		}
	}
	return false
}

// BreakerStates lists every shard's circuit state, in BaseURLs order.
func (s *Sharded) BreakerStates() []string {
	states := make([]string, len(s.shards))
	for i, sh := range s.shards {
		states[i] = sh.BreakerState()
	}
	return states
}

// SetEvents attaches the recorder to every shard.
func (s *Sharded) SetEvents(rec *eventlog.Recorder) {
	for _, sh := range s.shards {
		sh.SetEvents(rec)
	}
}

// Close flushes and closes every shard, returning the first error.
func (s *Sharded) Close() error {
	var errs []error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// The in-memory front the Store keeps ahead of its segment log. It is
// the shared generic internal/lru cache instantiated at report.Cell —
// the same implementation the plan caches use — with a weight of 1 per
// cell, so its budget is a count of cells. Not safe for concurrent use
// — callers hold their own lock, as the cache is always touched
// together with other state.
package store

import (
	"repro/internal/lru"
	"repro/internal/report"
)

type lruCache = lru.Cache[report.Cell]

func newLRU(capacity int) *lruCache { return lru.New[report.Cell](capacity) }

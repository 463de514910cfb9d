// Package lru is the one LRU implementation the repo shares: the
// store's in-memory front (ahead of the segment log and the network)
// and the plan caches of a hub and of a dispatch worker are all
// instances of this generic cache. Deliberately minimal — string keys,
// a hard budget of entry weights, newest-at-front eviction — and
// deliberately not synchronized: every caller already owns a lock that
// covers the cache together with the state it fronts, so building a
// second lock in here would only hide ordering bugs.
package lru

import "container/list"

// Cache maps string keys to values of type V with least-recently-used
// eviction past a fixed budget. Each entry weighs what its Add said;
// a cache whose entries all weigh 1 holds at most budget entries. Not
// safe for concurrent use.
type Cache[V any] struct {
	budget int
	weight int                      // total weight of the entries held
	order  *list.List               // front = most recent
	mem    map[string]*list.Element // key → entry
}

type entry[V any] struct {
	key    string
	val    V
	weight int
}

// New builds a cache whose entries weigh at most budget in total.
func New[V any](budget int) *Cache[V] {
	return &Cache[V]{budget: budget, order: list.New(), mem: map[string]*list.Element{}}
}

// Get returns the cached value and promotes it to most-recent.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.mem[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Contains reports presence without promoting.
func (c *Cache[V]) Contains(key string) bool {
	_, ok := c.mem[key]
	return ok
}

// Add inserts (or promotes) key with the given weight and evicts the
// least recently used entries until the total is within the budget. A
// value that alone weighs more than the budget is not added, and
// evicts nothing. An existing key keeps its stored value — the
// content-addressed callers never re-add a different value under the
// same key.
func (c *Cache[V]) Add(key string, val V, weight int) {
	if el, ok := c.mem[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	if weight > c.budget {
		return
	}
	c.mem[key] = c.order.PushFront(&entry[V]{key: key, val: val, weight: weight})
	c.weight += weight
	for c.weight > c.budget {
		c.remove(c.order.Back())
	}
}

// Remove deletes key if present (GC discarding an expired entry).
func (c *Cache[V]) Remove(key string) {
	if el, ok := c.mem[key]; ok {
		c.remove(el)
	}
}

func (c *Cache[V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*entry[V])
	delete(c.mem, e.key)
	c.weight -= e.weight
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.order.Len() }

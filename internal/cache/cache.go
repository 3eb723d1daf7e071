// Package cache provides a small, mutex-guarded LRU used to memoize query
// responses in front of the (deterministic, immutable-index) search engine
// — the standard serving-layer optimization for read-heavy keyword-search
// deployments such as cmd/gksd.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache. The zero value is
// unusable; create instances with New. All methods are safe for concurrent
// use.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[K]*list.Element

	hits, misses int64
}

type entry[K comparable, V any] struct {
	key   K
	value V
}

// New returns an LRU holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and whether it was present, refreshing the
// entry's recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	return c.GetIf(key, func(V) bool { return true })
}

// GetIf is Get for a value that holds several answers under one key: the
// lookup is a hit only when the entry is present and has reports true of
// it, and a miss otherwise, so the counters keep counting answers served,
// not entries found. A present entry is refreshed either way. has runs
// under the cache's lock.
func (c *LRU[K, V]) GetIf(key K, has func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if v := el.Value.(*entry[K, V]).value; has(v) {
			c.hits++
			return v, true
		}
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the cached value without refreshing it or counting a
// lookup: the read half of a read-modify-write that ends in Put.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).value, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when over capacity.
func (c *LRU[K, V]) Put(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).value = value
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry[K, V]{key: key, value: value})
	c.items[key] = el
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every entry and returns how many there were: the caller
// replaced the data the values were computed from and cannot tell which of
// them still hold.
func (c *LRU[K, V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[K]*list.Element, c.capacity)
	return n
}

// DeleteFunc drops every entry for which del reports true and returns how
// many it dropped. The survivors keep their recency order and the hit/miss
// counters do not move. del runs under the cache's lock, so lookups wait
// for the sweep: it must be cheap and must not call back into the cache.
func (c *LRU[K, V]) DeleteFunc(del func(key K, value V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); del(e.key, e.value) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			n++
		}
		el = next
	}
	return n
}

// Stats returns cumulative hit/miss counters.
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

package segment

import (
	"container/list"
	"sync"
)

// cacheKey identifies one posting block: the owning reader's unique
// id plus the block index inside that reader's segment. Reader ids are
// never reused, so a reloaded segment at the same path cannot alias stale
// cached blocks.
type cacheKey struct {
	rid   uint64
	block int32
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

// BlockCache is a byte-capacity LRU cache of posting blocks as the reader
// decodes terms from them: a version-2 block's file bytes, a version-1
// block's inflated bytes.
// It is safe for concurrent use and designed to be shared: one cache can
// back many readers (all shards, successive hot-reload generations), so
// the resident-block budget is a single process-wide number rather than
// per-segment. Capacity counts block payload bytes; an entry larger
// than the whole capacity is admitted and immediately evicted, so
// oversized blocks pass through without wedging the cache.
type BlockCache struct {
	capacity int64
	metrics  Metrics

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	bytes int64
}

// NewBlockCache returns a cache bounded to capacity block payload bytes,
// reporting hit/miss/eviction counts and the resident-bytes gauge to m (nil
// discards them). A non-positive capacity yields a cache that stores
// nothing (every fetch is a miss) — useful in tests that must force disk
// reads.
func NewBlockCache(capacity int64, m Metrics) *BlockCache {
	if m == nil {
		m = nopMetrics{}
	}
	return &BlockCache{
		capacity: capacity,
		metrics:  m,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// get returns the cached block and marks it most-recently-used.
func (c *BlockCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.items[k]
	if !ok {
		c.mu.Unlock()
		c.metrics.BlockCacheMiss()
		return nil, false
	}
	c.ll.MoveToFront(e)
	data := e.Value.(*cacheEntry).data
	c.mu.Unlock()
	c.metrics.BlockCacheHit()
	return data, true
}

// put inserts (or refreshes) a block, then evicts least-recently-used
// entries until the cache is back within capacity. The fresh entry sits at
// the front, so it is evicted only if it alone exceeds the capacity.
func (c *BlockCache) put(k cacheKey, data []byte) {
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		// A concurrent fetch of the same block won the race; keep the
		// resident copy and just refresh recency.
		c.ll.MoveToFront(e)
		c.mu.Unlock()
		return
	}
	e := c.ll.PushFront(&cacheEntry{key: k, data: data})
	c.items[k] = e
	c.bytes += int64(len(data))
	evicted := 0
	for c.bytes > c.capacity && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		evicted++
	}
	resident := c.bytes
	c.mu.Unlock()
	for i := 0; i < evicted; i++ {
		c.metrics.BlockCacheEvict()
	}
	c.metrics.SetBlockCacheBytes(resident)
}

// removeLocked unlinks one element; the caller holds c.mu.
func (c *BlockCache) removeLocked(e *list.Element) {
	ent := c.ll.Remove(e).(*cacheEntry)
	delete(c.items, ent.key)
	c.bytes -= int64(len(ent.data))
}

// DropReader evicts every block owned by reader id rid — called by
// Reader.Close so a retired hot-reload generation releases its share of a
// cache it no longer needs.
func (c *BlockCache) DropReader(rid uint64) {
	c.mu.Lock()
	var next *list.Element
	for e := c.ll.Front(); e != nil; e = next {
		next = e.Next()
		if e.Value.(*cacheEntry).key.rid == rid {
			c.removeLocked(e)
		}
	}
	resident := c.bytes
	c.mu.Unlock()
	c.metrics.SetBlockCacheBytes(resident)
}

// Len returns the number of resident blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident block payload bytes.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

package engine

import (
	"container/list"
	"sync"

	"lightpath/internal/core"
)

// treeKey identifies one cached SourceTree: trees are only valid for
// the exact epoch whose residual network they were computed on.
type treeKey struct {
	source int
	epoch  uint64
}

// CacheStats reports the SourceTree cache counters. Lookups is always
// Hits + Misses — both counters advance under the cache lock — and is
// carried explicitly so telemetry consumers can assert the invariant
// instead of assuming it.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Lookups   uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// treeCache is a bounded LRU of SourceTrees. Entries from superseded
// epochs are never explicitly invalidated — they stay correct for
// readers still pinned to their epoch and age out via normal LRU
// pressure as fresh epochs dominate lookups.
type treeCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[treeKey]*list.Element
	hits      uint64
	misses    uint64
	lookups   uint64
	evictions uint64
}

type cacheEntry struct {
	key  treeKey
	tree *core.SourceTree
}

func newTreeCache(capacity int) *treeCache {
	return &treeCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[treeKey]*list.Element, capacity),
	}
}

func (c *treeCache) get(k treeKey) (*core.SourceTree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).tree, true
}

// peek reports residency without counting a lookup or touching LRU
// order (Engine.TreeCached).
func (c *treeCache) peek(k treeKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

func (c *treeCache) put(k treeKey, tree *core.SourceTree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Concurrent miss computed the same tree; keep the newer value.
		el.Value.(*cacheEntry).tree = tree
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, tree: tree})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *treeCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Lookups:   c.lookups,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

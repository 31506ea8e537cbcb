package server

import (
	"container/list"
	"sync"

	"semacyclic/internal/telemetry"
)

// lruCache is a small mutex-guarded LRU map that counts its hits,
// misses and capacity evictions for /metrics. The server's caches sit
// on the request path before the worker pool, so the critical sections
// are a map probe, a list splice and a counter bump — no decision work
// happens under the lock.
type lruCache struct {
	mu           sync.Mutex
	max          int
	ll           *list.List               `sem:"guardedby(mu)"`
	items        map[string]*list.Element `sem:"guardedby(mu)"`
	hits         int64                    `sem:"guardedby(mu)"`
	misses       int64                    `sem:"guardedby(mu)"`
	evictions    int64                    `sem:"guardedby(mu)"`
	evictedAgeNS int64                    `sem:"guardedby(mu)"`
}

type lruEntry struct {
	key   string
	val   any
	added telemetry.Stopwatch
}

func newLRU(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and promotes it to most-recently-used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

// Add inserts or refreshes the entry, evicting the least-recently-used
// entries beyond the capacity.
func (c *lruCache) Add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, added: telemetry.StartTimer()})
	for c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		ent := old.Value.(*lruEntry)
		delete(c.items, ent.key)
		c.evictions++
		c.evictedAgeNS += int64(ent.added.ElapsedNS())
	}
}

// Len reports the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns the cumulative Get-hit count.
func (c *lruCache) Hits() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.hits }

// Misses returns the cumulative Get-miss count.
func (c *lruCache) Misses() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.misses }

// Evictions returns the cumulative capacity-eviction count.
func (c *lruCache) Evictions() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.evictions }

// EvictedAgeNS returns the summed residency age of evicted entries —
// low total age per eviction means the cache is churning (undersized).
func (c *lruCache) EvictedAgeNS() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.evictedAgeNS }

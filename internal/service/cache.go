package service

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, mutex-guarded LRU map from request key to computed
// result view. A capacity of 0 disables caching (every Get misses, Add is a
// no-op), which the tests use to exercise the coalescing path in isolation.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *lruEntry
	items map[string]*list.Element
	// perOwner counts live entries per owner (namespace), so a tenant's
	// CacheShare quota can be enforced without scanning on the hit path.
	perOwner map[string]int
}

type lruEntry struct {
	key   string
	owner string
	val   any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		perOwner: make(map[string]int),
	}
}

// Get returns the cached value for key, promoting it to most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts or refreshes key under the given owner (the namespace the
// result belongs to). Two limits apply: ownerCap bounds the owner's own
// entry count (its quota CacheShare; 0 = no per-owner bound), evicting the
// owner's least recently used entry first, and the global capacity evicts
// the overall least recently used entry — so a tenant at its share recycles
// its own slots instead of pushing other tenants' warm results out.
func (c *lruCache) Add(key string, val any, owner string, ownerCap int64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	if ownerCap > 0 && int64(c.perOwner[owner]) >= ownerCap {
		// The owner is at its share: free its own least recently used slot.
		// O(cache size) worst case, but only on inserts past the share —
		// the hit path never pays it.
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if el.Value.(*lruEntry).owner == owner {
				c.removeElement(el)
				break
			}
		}
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, owner: owner, val: val})
	c.perOwner[owner]++
	if c.ll.Len() > c.cap {
		c.removeElement(c.ll.Back())
	}
}

func (c *lruCache) removeElement(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if n := c.perOwner[e.owner] - 1; n > 0 {
		c.perOwner[e.owner] = n
	} else {
		delete(c.perOwner, e.owner)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// RemovePrefix drops every entry whose key starts with prefix; used when a
// dataset is deregistered (namespace+dataset prefix) so its results cannot
// be served afterwards, and usable per tenant (namespace prefix alone).
func (c *lruCache) RemovePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		if len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			c.removeElement(el)
		}
		el = next
	}
}

// Package lru is a small, concurrency-safe, fixed-capacity LRU cache.
// It backs the Analyzer's report cache: admission-control services see
// heavy repeated traffic (the same task set re-submitted on every
// deployment check), and an analysis result is immutable once
// computed, so a bounded recently-used window captures most hits
// without unbounded growth.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps K to V, evicting the least recently used entry once more
// than its capacity entries are stored. All methods are safe for
// concurrent use. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	items   map[K]*list.Element
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries. A capacity
// of zero or less returns nil, which every method treats as a cache
// that never hits — callers can disable caching without branching.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// OnEvict registers fn to run for every entry dropped by capacity
// eviction (not for values replaced by Add). fn runs synchronously
// with the cache lock held, so it must not call back into the cache;
// callers who need the cache again must defer that work. Set it
// before the cache is shared across goroutines.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the value stored under k and marks it most recently
// used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k (replacing any existing value), marks it most
// recently used, and evicts the least recently used entry if the
// cache is over capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		ent := oldest.Value.(*entry[K, V])
		delete(c.items, ent.key)
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
}

// Len returns the number of entries currently stored.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

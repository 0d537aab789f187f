// Package cache provides the serving-layer primitives of the repository: a
// generic LRU cache with hit/miss/eviction accounting and a generic
// singleflight group that coalesces concurrent identical requests into one
// execution.
//
// Both types are safe for concurrent use and dependency-free. They back
// selfishmining.Service, which layers them into a result cache (solved
// analyses), a structure cache (compiled attack MDPs shared across chain
// parameters), and a warm-start store (value vectors reused as solver
// seeds).
package cache

import "sync"

// Stats is a point-in-time snapshot of an LRU's accounting counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Evictions counts entries displaced by Add on a full cache.
	Evictions uint64
	// Len and Cap are the current and maximal entry counts.
	Len, Cap int
}

// entry is a node of the intrusive doubly-linked recency list.
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity least-recently-used cache. The zero value is not
// usable; construct with NewLRU. All methods are safe for concurrent use.
//
// A capacity of zero disables the cache entirely: Add is a no-op and Get
// always misses (still counted), which gives callers a uniform way to run
// cache-free for comparisons.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	// head is most recently used, tail least; nil when empty.
	head, tail *entry[K, V]
	stats      Stats
}

// NewLRU returns an empty cache holding at most capacity entries.
// A negative capacity is treated as zero (disabled).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	// The map grows with use: a short-lived cache that holds a handful of
	// entries never pays for its full capacity.
	return &LRU[K, V]{
		capacity: capacity,
		items:    make(map[K]*entry[K, V]),
	}
}

// Get returns the value cached under key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e.value, true
}

// Add stores value under key, evicting the least recently used entry if the
// cache is full. Adding an existing key updates its value and recency. It
// reports whether an eviction happened.
func (c *LRU[K, V]) Add(key K, value V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity == 0 {
		return false
	}
	if e, ok := c.items[key]; ok {
		e.value = value
		c.moveToFront(e)
		return false
	}
	if len(c.items) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.items, lru.key)
		c.stats.Evictions++
		evicted = true
	}
	e := &entry[K, V]{key: key, value: value}
	c.items[key] = e
	c.pushFront(e)
	return evicted
}

// GetOrAdd returns the value already cached under key (marking it most
// recently used), or stores and returns value if the key is absent — a
// single atomic step, so two racing callers always agree on one winner
// instead of silently replacing each other's entry.
func (c *LRU[K, V]) GetOrAdd(key K, value V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.stats.Hits++
		c.moveToFront(e)
		return e.value, true
	}
	c.stats.Misses++
	if c.capacity == 0 {
		return value, false
	}
	if len(c.items) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.items, lru.key)
		c.stats.Evictions++
	}
	e := &entry[K, V]{key: key, value: value}
	c.items[key] = e
	c.pushFront(e)
	return value, false
}

// Remove drops key from the cache, reporting whether it was present.
// Removals are not counted as evictions.
func (c *LRU[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.items, key)
	return true
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the accounting counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Len = len(c.items)
	s.Cap = c.capacity
	return s
}

// moveToFront marks e most recently used. Caller holds mu.
func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// pushFront links a detached e as the new head. Caller holds mu.
func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink detaches e from the recency list. Caller holds mu.
func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

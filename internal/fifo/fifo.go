// Package fifo is the bounded memo behind oracled's response cache (encoded
// responses keyed by request bytes) and campaign's graph-instance cache
// (graphs keyed by family, n and seed). Entries are evicted first in,
// first out.
package fifo

import "sync"

// Cache maps byte-string keys to values of type V. The key space is split
// by hash over independently locked shards, so concurrent lookups do not
// serialize on one mutex. Capacity is divided across the shards, the
// remainder one entry each to the first shards, and each shard evicts its
// oldest entry once it holds more than its share, so the cache never holds
// more than its capacity; a sharded cache may therefore evict an entry a
// single shard of the same total capacity would have kept. A stored value
// is never replaced: the first Add of a key wins until the key is evicted.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]V
	order   []string // keys in insertion order, oldest first
	cap     int
}

// New returns a cache bounded to capacity entries (minimum 1) over the
// given number of shards, rounded down to a power of two no larger than
// the capacity. Each shard holds capacity/shards entries, and the first
// capacity%shards shards one more.
func New[V any](capacity, shards int) *Cache[V] {
	capacity = max(capacity, 1)
	shards = min(max(shards, 1), capacity)
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i].entries = make(map[string]V, per)
		c.shards[i].cap = per
	}
	return c
}

// shard picks key's shard by FNV-1a.
func (c *Cache[V]) shard(key []byte) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &c.shards[h&c.mask]
}

// Get returns the value stored under key. It does not allocate: the
// string(key) conversion inside the map index is not materialized.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.entries[string(key)]
	s.mu.Unlock()
	return v, ok
}

// Add stores v under key unless key is already present, evicting the
// shard's oldest entry when the shard is over its share. It returns the
// value stored under key and whether that value is v; when two callers
// race to add one key, both get the first one's value.
func (c *Cache[V]) Add(key []byte, v V) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[string(key)]; ok {
		return old, false
	}
	k := string(key)
	s.entries[k] = v
	s.order = append(s.order, k)
	if len(s.order) > s.cap {
		// Re-slicing keeps the backing array bounded: once its front is
		// used up, append moves the live window to a new array.
		delete(s.entries, s.order[0])
		s.order[0] = ""
		s.order = s.order[1:]
	}
	return v, true
}

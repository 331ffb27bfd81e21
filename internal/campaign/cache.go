package campaign

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
)

// Cache shares generated graph instances across the trials × schemes ×
// tasks fan-out, and in oracled across requests and shards. Units that
// agree on (family, n, seed) run on one immutable graph instead of
// regenerating it per unit, which both removes the dominant per-unit cost
// and puts competing schemes on the exact same input. It holds graphs
// only and each run builds its own advice: a probe of the benchmark
// traffic found per-instance advice reused only for the flooding
// baseline's empty advice.
//
// The cache is bounded: entries are evicted in insertion (FIFO) order once
// the capacity is exceeded. A unit that misses after eviction simply
// regenerates the instance from its seed, so cache state never affects
// results — only speed. A nil *Cache is valid and generates every graph
// afresh.
//
// The key space is partitioned by hash into independently locked shards so
// concurrent lookups — the oracled serving path runs one per request —
// do not serialize on a single mutex. Capacity is divided evenly across
// shards and each shard evicts FIFO on its own; a sharded cache may
// therefore evict an entry a single-shard cache of the same total capacity
// would have kept (and vice versa), which by the regeneration contract
// above is a speed difference, never a correctness one.
type Cache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Int64
	misses atomic.Int64
}

// instanceKey identifies one cached instance without string formatting:
// the triple is the generation function's full input. The textual form
// "instance/<family>/n<n>/s<seed>" used in logs corresponds 1:1.
type instanceKey struct {
	family string
	n      int
	seed   int64
}

// hash is FNV-1a over the key's fields, used for shard selection.
func (k instanceKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.family); i++ {
		h ^= uint64(k.family[i])
		h *= prime64
	}
	h ^= uint64(k.n)
	h *= prime64
	h ^= uint64(k.seed)
	h *= prime64
	return h
}

// cacheShard is one independently locked slice of the key space. Eviction
// order is tracked as order[head:]; evicting advances head instead of
// re-slicing, and the dead prefix is periodically compacted in place so
// the backing array stays bounded by ~2× the shard capacity (the old
// order = order[1:] idiom pinned every appended backing array forever).
type cacheShard struct {
	mu      sync.Mutex
	entries map[instanceKey]*cacheEntry
	order   []instanceKey
	head    int
	cap     int
}

// cacheEntry is one cached graph. It is generated at most once: workers
// that race on a fresh entry block on the Once. The graph is immutable
// after construction, so concurrent units may share it freely.
type cacheEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

// NewCache returns a cache bounded to capacity instances (minimum 1),
// evicted FIFO, with its key space split over the given number of
// independently locked shards (rounded up to a power of two, at most
// capacity) and the capacity divided evenly across them. One shard suits
// a worker pool that looks instances up once per unit; concurrent servers
// use several. Sharding changes which entries survive eviction pressure,
// never any record contents.
func NewCache(capacity, shards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].entries = make(map[instanceKey]*cacheEntry, per)
		c.shards[i].cap = per
	}
	return c
}

// Graph returns the instance of fam at the requested size and seed,
// generating it on first use; a nil cache generates it afresh. Callers
// must treat the graph as immutable; it remains valid after eviction.
//
// The key carries the seed rather than a trial index: a cache shared
// across specs — oracled keeps one alive across campaign submissions —
// must not hand a unit from one spec a graph generated under another
// spec's seed. Campaign units (keyed by InstanceSeed) and direct service
// requests that agree on (family, n, seed) therefore share one graph.
func (c *Cache) Graph(fam graphgen.Family, n int, seed int64) (*graph.Graph, error) {
	if c == nil {
		return fam.Generate(n, rand.New(rand.NewSource(seed)))
	}
	key := instanceKey{family: fam.Name, n: n, seed: seed}
	s := &c.shards[key.hash()&c.mask]
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &cacheEntry{}
		s.entries[key] = e
		s.order = append(s.order, key)
		if len(s.order)-s.head > s.cap {
			// Evicting an entry another worker still holds is safe: their
			// pointer stays valid, the instance just stops being shared.
			delete(s.entries, s.order[s.head])
			s.order[s.head] = instanceKey{} // drop the family string reference
			s.head++
			if s.head > s.cap {
				live := copy(s.order, s.order[s.head:])
				s.order = s.order[:live]
				s.head = 0
			}
		}
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.g, e.err = fam.Generate(n, rand.New(rand.NewSource(seed)))
	})
	return e.g, e.err
}

// CacheStats is a point-in-time snapshot of instance-cache effectiveness.
// Hits reused a shared graph instance; misses generated one. Cache state
// never affects record contents, only speed.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Lookups is the total number of instance resolutions.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRatio is Hits/Lookups, or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if total := s.Lookups(); total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats snapshots the cumulative hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

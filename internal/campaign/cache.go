package campaign

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"oraclesize/internal/fifo"
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
// Entries live in a fifo.Cache split over independently locked shards, so
// concurrent lookups — the oracled serving path runs one per request — do
// not serialize on a single mutex. Each shard evicts on its own; a sharded
// cache may therefore evict an entry a single-shard cache of the same total
// capacity would have kept (and vice versa), which by the regeneration
// contract above is a speed difference, never a correctness one.
type Cache struct {
	entries *fifo.Cache[*cacheEntry]
	hits    atomic.Int64
	misses  atomic.Int64
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
// independently locked shards (rounded down to a power of two, at most
// capacity) and the capacity divided across them. One shard suits
// a worker pool that looks instances up once per unit; concurrent servers
// use several. Sharding changes which entries survive eviction pressure,
// never any record contents.
func NewCache(capacity, shards int) *Cache {
	return &Cache{entries: fifo.New[*cacheEntry](capacity, shards)}
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
		return fam.Generate(n, seed)
	}
	// The key is the generation function's full input: the length-prefixed
	// family name, n and seed.
	var buf [64]byte
	key := binary.AppendUvarint(buf[:0], uint64(len(fam.Name)))
	key = append(key, fam.Name...)
	key = binary.AppendVarint(key, int64(n))
	key = binary.AppendVarint(key, seed)
	e, hit := c.entries.Get(key)
	if !hit {
		// A racing Add returns the first entry, so each graph is still
		// generated once. Evicting an entry another worker still holds is
		// safe: their pointer stays valid, the instance just stops being
		// shared.
		var added bool
		e, added = c.entries.Add(key, &cacheEntry{})
		hit = !added
	}
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.g, e.err = fam.Generate(n, seed)
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

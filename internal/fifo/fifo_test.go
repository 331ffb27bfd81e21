package fifo

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

func (c *Cache[V]) len() int {
	total := 0
	for i := range c.shards {
		total += len(c.shards[i].entries)
	}
	return total
}

// TestEvictsOldestFirst: a full shard drops its oldest key, and a repeated
// Add keeps the first value without refreshing the key's age.
func TestEvictsOldestFirst(t *testing.T) {
	c := New[int](3, 1)
	for i, k := range []string{"a", "b", "c"} {
		if v, added := c.Add([]byte(k), i); v != i || !added {
			t.Fatalf("Add(%s, %d) = %d, %v", k, i, v, added)
		}
	}
	if v, added := c.Add([]byte("a"), 99); v != 0 || added {
		t.Errorf("repeated Add(a) = %d, %v; want the first value 0, false", v, added)
	}
	c.Add([]byte("d"), 3)
	if _, ok := c.Get([]byte("a")); ok {
		t.Error("oldest key a survived an Add past capacity")
	}
	for i, k := range []string{"b", "c", "d"} {
		if v, ok := c.Get([]byte(k)); !ok || v != i+1 {
			t.Errorf("Get(%s) = %d, %v; want %d, true", k, v, ok, i+1)
		}
	}
}

// TestEvictionOrderDoesNotLeak: churning far more distinct keys than the
// capacity through a shard must leave both the entry map and the order
// slice's backing array bounded by the capacity, not by the history.
func TestEvictionOrderDoesNotLeak(t *testing.T) {
	const capacity = 4
	c := New[[]byte](capacity, 1)
	most := 0
	for i := 0; i < 100_000; i++ {
		c.Add(strconv.AppendInt(nil, int64(i), 10), []byte("{}"))
		most = max(most, cap(c.shards[0].order))
	}
	s := &c.shards[0]
	if len(s.entries) > capacity || len(s.order) > capacity {
		t.Errorf("entries = %d, order = %d, want <= %d", len(s.entries), len(s.order), capacity)
	}
	// Re-slicing past the front and letting append reallocate keeps the
	// array under twice the capacity plus append's rounding (7 slots here).
	if most > 4*capacity {
		t.Errorf("order backing array reached %d slots over 100k insertions, want <= %d", most, 4*capacity)
	}
}

// TestShardedCacheSpreadsKeys sanity-checks the partitioning: distinct
// keys land in more than one shard, total capacity is preserved, and
// shard counts are capped at the capacity and rounded down to a power of
// two.
func TestShardedCacheSpreadsKeys(t *testing.T) {
	c := New[int](64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	for i := 0; i < 64; i++ {
		c.Add([]byte(fmt.Sprintf("instance/random-sparse/n8/s%d", i)), i)
	}
	populated := 0
	for i := range c.shards {
		if len(c.shards[i].entries) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("64 distinct keys landed in %d shard(s); hash is not spreading", populated)
	}
	if n := c.len(); n > 64 {
		t.Errorf("sharded cache holds %d entries, capacity 64", n)
	}
	if got := len(New[int](4, 100).shards); got != 4 {
		t.Errorf("shards(cap=4, want 100) = %d, want 4", got)
	}
	if got := len(New[int](64, 5).shards); got != 4 {
		t.Errorf("shards(cap=64, want 5) = %d, want 4 (power of two below)", got)
	}
	if got := len(New[int](5, 8).shards); got != 4 {
		t.Errorf("shards(cap=5, want 8) = %d, want 4 (power of two below the capacity)", got)
	}
	if got := len(New[int](0, 0).shards); got != 1 {
		t.Errorf("shards(cap=0, want 0) = %d, want 1", got)
	}
}

// TestCapacityIsABound: churning far more keys than the capacity through
// a sharded cache fills every shard to its share, and the shares sum to
// the capacity exactly, also when it does not divide by the shard count.
func TestCapacityIsABound(t *testing.T) {
	for _, capacity := range []int{5, 4097, 128} {
		c := New[int](capacity, 8)
		for i := 0; i < 100_000; i++ {
			c.Add(strconv.AppendInt(nil, int64(i), 10), i)
		}
		if n := c.len(); n != capacity {
			t.Errorf("New(%d, 8) holds %d entries after 100k adds, want %d", capacity, n, capacity)
		}
	}
}

// TestGetDoesNotAllocate pins the lookup both caches run on every hit.
func TestGetDoesNotAllocate(t *testing.T) {
	c := New[[]byte](16, 8)
	key := []byte(`r{"family":"random-sparse","n":256,"seed":1,"task":"broadcast"}`)
	c.Add(key, []byte("{}\n"))
	miss := []byte("absent")
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("stored key missing")
		}
		if _, ok := c.Get(miss); ok {
			t.Fatal("absent key found")
		}
	}); allocs != 0 {
		t.Errorf("Get allocates %.1f times per hit and miss, want 0", allocs)
	}
}

// TestConcurrentAddKeepsFirst: goroutines racing to add one key all get
// the value exactly one of them stored.
func TestConcurrentAddKeepsFirst(t *testing.T) {
	c := New[*int](8, 4)
	key := []byte("instance")
	const racers = 8
	got := make([]*int, racers)
	added := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := i
			got[i], added[i] = c.Add(key, &v)
		}(i)
	}
	wg.Wait()
	winners := 0
	for i := range got {
		if got[i] != got[0] {
			t.Errorf("racer %d got %p, racer 0 got %p", i, got[i], got[0])
		}
		if added[i] {
			winners++
		}
	}
	if winners != 1 {
		t.Errorf("%d racers stored their value, want 1", winners)
	}
}

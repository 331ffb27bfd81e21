package campaign

import (
	"reflect"
	"testing"

	"oraclesize/internal/graphgen"
)

// taskUnits returns the quick spec's task units (the ones the graph cache
// serves).
func taskUnits(t *testing.T) (*Spec, []Unit) {
	t.Helper()
	spec := QuickSpec()
	var units []Unit
	for _, u := range spec.Units() {
		if u.Kind == KindTask {
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		t.Fatal("quick spec has no task units")
	}
	return spec, units
}

// TestCacheDoesNotChangeRecords is the cache-transparency contract: every
// task unit must produce identical records (modulo WallNS) with a shared
// cache, with a cold cache, and with no cache at all — the cache is pure
// memoization of a deterministic function of InstanceSeed, and the
// uncached run is the reference.
func TestCacheDoesNotChangeRecords(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	shared := NewCache(len(units), 1)
	for _, u := range units {
		variants := []struct {
			label string
			cache *Cache
		}{
			{"uncached", nil},
			{"cold", NewCache(1, 1)},
			{"shared", shared},
		}
		var want []Record
		for _, v := range variants {
			recs, err := runUnit(spec, hash, u, v.cache)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Key(), v.label, err)
			}
			for i := range recs {
				recs[i].WallNS = 0
			}
			if want == nil {
				want = recs
				continue
			}
			if !reflect.DeepEqual(want, recs) {
				t.Errorf("%s: %s records differ from uncached:\nuncached: %+v\n%s: %+v",
					u.Key(), v.label, want, v.label, recs)
			}
		}
	}
}

// TestSharedCacheAcrossSpecSeeds is the shared-cache reproducibility
// contract the oracled service relies on: one cache kept alive across
// campaigns with different spec seeds must produce exactly the records a
// private cache would. Units of the two specs agree on (family, n, trial)
// but not on InstanceSeed, so a cache keyed without the seed would serve
// the second spec the first spec's graphs.
func TestSharedCacheAcrossSpecSeeds(t *testing.T) {
	specA := QuickSpec()
	specB := QuickSpec()
	specB.Seed = specA.Seed + 1
	shared := NewCache(256, 1)
	for _, spec := range []*Spec{specA, specB} {
		hash := spec.Hash()
		for _, u := range spec.Units() {
			if u.Kind != KindTask {
				continue
			}
			got, err := runUnit(spec, hash, u, shared)
			if err != nil {
				t.Fatalf("seed %d %s shared: %v", spec.Seed, u.Key(), err)
			}
			want, err := runUnit(spec, hash, u, nil)
			if err != nil {
				t.Fatalf("seed %d %s uncached: %v", spec.Seed, u.Key(), err)
			}
			for i := range got {
				got[i].WallNS = 0
			}
			for i := range want {
				want[i].WallNS = 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: shared-cache records differ from uncached:\nshared:   %+v\nuncached: %+v",
					spec.Seed, u.Key(), got, want)
			}
		}
	}
}

// TestShardedCacheDoesNotChangeRecords extends the transparency contract
// to the sharded cache the oracled service uses: task units run
// against a many-shard cache must produce exactly the records an
// unsharded (and an uncached) run would.
func TestShardedCacheDoesNotChangeRecords(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	sharded := NewCache(len(units), 8)
	for _, u := range units {
		got, err := runUnit(spec, hash, u, sharded)
		if err != nil {
			t.Fatalf("%s sharded: %v", u.Key(), err)
		}
		want, err := runUnit(spec, hash, u, nil)
		if err != nil {
			t.Fatalf("%s uncached: %v", u.Key(), err)
		}
		for i := range got {
			got[i].WallNS = 0
		}
		for i := range want {
			want[i].WallNS = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded-cache records differ from uncached:\nsharded:  %+v\nuncached: %+v",
				u.Key(), got, want)
		}
	}
}

// TestEvictionOrderDoesNotLeak: churning far more distinct instances than
// the capacity through the cache must leave only the newest capacity
// instances resident, so its footprint follows the capacity, not the
// history. The newest are probed first because a hit evicts nothing; every
// older instance must then miss and regenerate. The order slice's own
// bound is pinned by the fifo package's test of the same name.
func TestEvictionOrderDoesNotLeak(t *testing.T) {
	const capacity, churn = 4, 10_000
	c := NewCache(capacity, 1)
	fam, err := graphgen.FamilyByName("path")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < churn; seed++ {
		if _, err := c.Graph(fam, 4, seed); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != churn {
		t.Fatalf("churn: hits, misses = %d, %d; want 0, %d", st.Hits, st.Misses, churn)
	}
	for seed := int64(churn - 1); seed >= 0; seed-- {
		if _, err := c.Graph(fam, 4, seed); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != capacity || st.Misses != 2*churn-capacity {
		t.Errorf("probe: hits, misses = %d, %d; want %d, %d (only the newest %d resident)",
			st.Hits, st.Misses, capacity, 2*churn-capacity, capacity)
	}
}

// TestCacheHitMissAccounting checks that trials of the same instance hit
// the cache after the first miss, and that eviction only regenerates —
// never corrupts — an instance.
func TestCacheHitMissAccounting(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	cache := NewCache(len(units), 1)
	seen := map[string]bool{}
	wantMisses := 0
	for _, u := range units {
		if !seen[u.InstanceKey()] {
			seen[u.InstanceKey()] = true
			wantMisses++
		}
		if _, err := runUnit(spec, hash, u, cache); err != nil {
			t.Fatalf("%s: %v", u.Key(), err)
		}
	}
	st := cache.Stats()
	hits, misses := st.Hits, st.Misses
	if int(misses) != wantMisses {
		t.Errorf("misses = %d, want %d (one per distinct instance)", misses, wantMisses)
	}
	if int(hits) != len(units)-wantMisses {
		t.Errorf("hits = %d, want %d", hits, len(units)-wantMisses)
	}
	if len(units) > 1 && hits == 0 {
		t.Error("no cache hits across schemes sharing an instance")
	}
}

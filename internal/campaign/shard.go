package campaign

import "fmt"

// Shard is a contiguous range [Start, End) of a spec's compiled unit list.
// Shards are the unit of distribution: a coordinator carves them and leases
// whole shards to workers, and because a shard names its units by index,
// every party that agrees on the spec agrees on what a shard computes.
type Shard struct {
	// Index is the shard's ordinal in the partition.
	Index int `json:"index"`
	// Start and End bound the unit-index range, half open.
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len is the number of units in the shard.
func (sh Shard) Len() int { return sh.End - sh.Start }

// String renders the shard for logs: "shard 3 [96,128)".
func (sh Shard) String() string {
	return fmt.Sprintf("shard %d [%d,%d)", sh.Index, sh.Start, sh.End)
}

// RunShard executes the shard's units sequentially and returns one record
// batch per unit, in unit order. It decodes only the shard's own units
// from the spec, and optionally shares a graph cache; a nil cache
// regenerates graphs from their seeds, which changes speed but never
// record contents. The worker-pool layer above decides how many shards
// run at once — a shard itself stays single-threaded so a bounded queue
// slot costs exactly one core.
func RunShard(spec *Spec, sh Shard, cache *Cache) ([][]Record, error) {
	if total := spec.UnitCount(); sh.Start < 0 || int64(sh.End) > total || sh.Start >= sh.End {
		return nil, fmt.Errorf("campaign: %v out of range for %d units", sh, total)
	}
	specHash := spec.Hash()
	schemes := spec.schemeLists()
	out := make([][]Record, sh.Len())
	for i := sh.Start; i < sh.End; i++ {
		u := spec.unit(schemes, i)
		recs, err := runUnit(spec, specHash, u, cache)
		if err != nil {
			return nil, fmt.Errorf("campaign: unit %s: %w", u.Key(), err)
		}
		out[i-sh.Start] = recs
	}
	return out, nil
}

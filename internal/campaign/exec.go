package campaign

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// RunOptions configure one campaign execution.
type RunOptions struct {
	// Workers caps pool concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// Done marks unit keys already present in the sink; those units are
	// skipped (resume semantics). Nil means run everything.
	Done map[string]bool
}

// Stats summarizes a completed execution.
type Stats struct {
	// Units is the compiled unit count.
	Units int
	// Executed counts units actually run (Units minus skipped).
	Executed int
	// Skipped counts units satisfied by the existing sink.
	Skipped int
	// Records counts JSONL records written this execution.
	Records int
	// CacheHits and CacheMisses count instance-cache lookups: hits reused
	// a shared graph instance, misses generated one. Cache state never
	// affects record contents, only speed.
	CacheHits   int64
	CacheMisses int64
}

// Run validates the spec, compiles its units, executes the ones not
// already Done on a bounded pool, and deposits records into the sink,
// which writes them in unit order. On error the artifact (with its
// journal, for a Sink from OpenJSONL) still holds a consistent subset of
// units, so a later Run with Done loaded from it completes exactly the
// missing units.
func Run(spec *Spec, sink *Sink, opts RunOptions) (Stats, error) {
	if err := spec.Validate(); err != nil {
		return Stats{}, err
	}
	units := spec.Units()
	specHash := spec.Hash()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The unit order revisits an instance across schemes after at most
	// Trials intervening units, so Trials entries plus in-flight slack keeps
	// the scheme fan-out at a ~100% hit rate without unbounded growth.
	cache := NewCache(spec.Trials+2*workers+8, 1)
	var executed, skipped atomic.Int64
	err := Pool{Workers: opts.Workers}.Run(len(units), func(i int) error {
		u := units[i]
		if opts.Done[u.Key()] {
			skipped.Add(1)
			if err := sink.Deposit(i, nil); err != nil {
				return err
			}
		} else {
			recs, err := runUnit(spec, specHash, u, cache)
			if err != nil {
				return fmt.Errorf("campaign: unit %s: %w", u.Key(), err)
			}
			executed.Add(1)
			if err := sink.Deposit(i, recs); err != nil {
				return err
			}
		}
		return nil
	})
	cs := cache.Stats()
	stats := Stats{
		Units:       len(units),
		Executed:    int(executed.Load()),
		Skipped:     int(skipped.Load()),
		Records:     sink.Written(),
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
	}
	return stats, err
}

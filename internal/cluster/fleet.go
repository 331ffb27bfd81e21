package cluster

import (
	"fmt"
	"sync"
)

// fleet is the coordinator's mutable worker set. Before elastic membership
// the fleet was a slice fixed at construction; now workers join and leave a
// running campaign, so the set lives behind its own lock, hands out stable
// indexes (a departed worker's index is never reused — its entry becomes a
// small tombstone so racing slot loops see `gone` instead of a nil), and
// tracks how many members are live.
//
// The heavyweight per-worker scheduling state — the adaptive sizer's EWMA,
// the metrics histograms — lives in maps owned by the run, not here, and is
// retired explicitly when a member is evicted (see Core.DropWorker), so a
// long-lived coordinator churning through thousands of workers holds one
// tombstone struct per departure, not an ever-growing pile of breakers and
// histograms.
type fleet struct {
	cfg *Config
	m   *coordMetrics
	rng *lockedRand

	mu      sync.RWMutex
	workers []*worker
	// byName maps a worker name (URL) to its latest index. A rejoin after
	// eviction gets a fresh entry — fresh breaker, fresh backoff — and the
	// name points at it.
	byName map[string]int
	live   int
}

// newFleet builds the initial fleet from cfg.Workers. An empty list is only
// legal for an elastic coordinator (members join later).
func newFleet(cfg *Config, m *coordMetrics, rng *lockedRand) (*fleet, error) {
	if len(cfg.Workers) == 0 && !cfg.Elastic {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	f := &fleet{cfg: cfg, m: m, rng: rng, byName: make(map[string]int, len(cfg.Workers))}
	for _, url := range cfg.Workers {
		if url == "" {
			return nil, fmt.Errorf("cluster: empty worker URL")
		}
		if _, dup := f.byName[url]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", url)
		}
		f.byName[url] = len(f.workers)
		f.workers = append(f.workers, newWorker(url, cfg, m, rng))
		f.live++
	}
	return f, nil
}

// add registers a new live worker and returns its index. If the name is
// already live the existing worker is revived (failure state reset) and
// reported with added=false; a name whose previous holder departed gets a
// fresh entry.
func (f *fleet) add(name string) (index int, added bool, err error) {
	if name == "" {
		return 0, false, fmt.Errorf("cluster: empty worker URL")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.byName[name]; ok {
		w := f.workers[i]
		if !w.isGone() {
			w.ok()
			w.markUp()
			w.setDraining(false)
			return i, false, nil
		}
	}
	w := newWorker(name, f.cfg, f.m, f.rng)
	w.markUp()
	index = len(f.workers)
	f.workers = append(f.workers, w)
	f.byName[name] = index
	f.live++
	return index, true, nil
}

// drop marks the named worker gone. It reports the worker and whether it
// was live; the caller requeues its leases and retires its run state.
func (f *fleet) drop(name string) (*worker, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	w := f.workers[i]
	if w.isGone() {
		return nil, false
	}
	w.retire()
	f.live--
	return w, true
}

// get returns worker i. Indexes are stable for the fleet's lifetime.
func (f *fleet) get(i int) *worker {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.workers[i]
}

// member looks a live member up by name. A -workers founder that never
// joined and a departed member are not members.
func (f *fleet) member(name string) (index int, w *worker, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, known := f.byName[name]
	if !known {
		return 0, nil, false
	}
	if _, ok := f.workers[i].asMember(); !ok {
		return 0, nil, false
	}
	return i, f.workers[i], true
}

// size is the total number of slots ever allocated (tombstones included);
// indexes run [0, size).
func (f *fleet) size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.workers)
}

// liveCount is the number of members currently accepting leases or
// draining (gone workers excluded).
func (f *fleet) liveCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.live
}

// snapshot copies the current worker list for lock-free iteration.
func (f *fleet) snapshot() []*worker {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*worker(nil), f.workers...)
}

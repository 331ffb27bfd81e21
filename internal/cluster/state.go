package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"oraclesize/internal/campaign"
)

// carver hands out the coordinator's work as contiguous unit ranges,
// carved on demand so each lease's size can come from live latency
// feedback (see sizer). A carved shard never contains a resumed unit: the
// range ends early at the first done unit, and runs of done units are
// skipped, so workers only ever execute units the artifact is missing.
// Guarded by runState.mu.
type carver struct {
	done  []bool // per unit index: satisfied by the resume set
	total int
	next  int // first unit index not yet carved
	index int // ordinal of the next shard
	left  int // not-done units not yet carved
}

func newCarver(total int, done []bool) *carver {
	cv := &carver{done: done, total: total}
	for i := 0; i < total; i++ {
		if !done[i] {
			cv.left++
		}
	}
	return cv
}

// carve returns the next shard of at most size units (size < 1 reads as
// 1), or false when every runnable unit has been carved.
func (cv *carver) carve(size int) (campaign.Shard, bool) {
	if size < 1 {
		size = 1
	}
	for cv.next < cv.total && cv.done[cv.next] {
		cv.next++
	}
	if cv.next >= cv.total {
		return campaign.Shard{}, false
	}
	start := cv.next
	end := start
	for end < cv.total && end-start < size && !cv.done[end] {
		end++
	}
	sh := campaign.Shard{Index: cv.index, Start: start, End: end}
	cv.index++
	cv.next = end
	cv.left -= sh.Len()
	return sh, true
}

// shardState tracks one shard through the lease lifecycle. Guarded by
// runState.mu.
type shardState struct {
	sh campaign.Shard
	// done flips when the first successful dispatch merges; later results
	// for the shard dedup away in the sink.
	done bool
	// inflight counts dispatches currently running (2 while hedged).
	inflight int
	// hedged marks that a speculative second dispatch was issued in this
	// lease generation; it resets if the shard is requeued.
	hedged bool
	// failures counts failed dispatches over the shard's lifetime, sheds
	// excepted, charged against Config.MaxAttempts.
	failures int
	// holders are the workers currently running the shard, so a hedge
	// never lands on the worker already holding it.
	holders map[*worker]bool
	// lastFailed remembers the worker behind the most recent failure, to
	// classify the next dispatch as a reassignment.
	lastFailed *worker
	// firstStart is when the current lease generation began — the clock
	// straggler detection compares against.
	firstStart time.Time
}

// runState is the shared ledger of one Run: the carver, the requeue queue,
// the in-flight set, and completion accounting. Slot goroutines contend on
// mu briefly per dispatch; the metrics renderer reads the same counters.
type runState struct {
	sink  *campaign.Sink
	m     *coordMetrics
	clock Clock

	maxAttempts int

	mu        sync.Mutex
	carv      *carver
	sizer     *sizer
	pending   []*shardState // requeued shards, retried before fresh carves
	inflight  map[*shardState]bool
	units     int   // compiled unit count
	skipped   int   // units satisfied by the resume set
	unitsLeft int   // runnable units not yet merged
	carved    int   // shards carved so far
	doneCount int   // shards merged so far
	sizes     []int // carved shard sizes, for the run summary
	fatal     error

	// wake nudges one sleeping slot when work appears; sleepers also poll
	// on a short timer, so a lost wakeup costs latency, not liveness.
	wake chan struct{}
	// doneCh closes when the run finishes or fails, so Run can cancel
	// still-running dispatches (hedge losers, doomed retries) immediately
	// instead of waiting out their leases.
	doneCh     chan struct{}
	doneClosed bool
}

func newRunState(cfg *Config, m *coordMetrics, workers int, totalUnits int, done []bool, sink *campaign.Sink) *runState {
	cv := newCarver(totalUnits, done)
	st := &runState{
		sink:        sink,
		m:           m,
		clock:       cfg.Clock,
		maxAttempts: cfg.MaxAttempts,
		carv:        cv,
		sizer:       newSizer(cfg, workers),
		inflight:    make(map[*shardState]bool),
		units:       totalUnits,
		skipped:     totalUnits - cv.left,
		unitsLeft:   cv.left,
		wake:        make(chan struct{}, 1),
		doneCh:      make(chan struct{}),
	}
	if st.unitsLeft == 0 {
		st.doneClosed = true
		close(st.doneCh)
	}
	return st
}

// closeDoneLocked closes doneCh once. Callers hold st.mu.
func (st *runState) closeDoneLocked() {
	if !st.doneClosed {
		st.doneClosed = true
		close(st.doneCh)
	}
}

// acquire hands w its next dispatch: a requeued shard first, then a fresh
// carve sized by the controller, and — when both are drained — a straggler
// to hedge. It returns nil when nothing is runnable for w right now.
func (st *runState) acquire(w *worker, hedgeAfter time.Duration) (s *shardState, hedge bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pending) > 0 {
		s = st.pending[0]
		st.pending = st.pending[1:]
	} else if sh, ok := st.carv.carve(st.sizer.sizeFor(w.url, st.carv.left)); ok {
		s = &shardState{sh: sh, holders: make(map[*worker]bool)}
		st.carved++
		st.sizes = append(st.sizes, sh.Len())
	}
	if s != nil {
		if s.lastFailed != nil && s.lastFailed != w {
			st.m.reassignments.Add(1)
		}
		s.firstStart = st.clock.Now()
		s.inflight++
		s.holders[w] = true
		st.inflight[s] = true
		return s, false
	}
	if hedgeAfter < 0 {
		return nil, false
	}
	now := st.clock.Now()
	// Hedge the longest-running eligible straggler (shard index breaks
	// ties), so the choice is deterministic under a virtual clock.
	var best *shardState
	for cand := range st.inflight {
		if cand.done || cand.hedged || cand.holders[w] || now.Sub(cand.firstStart) < hedgeAfter {
			continue
		}
		if best == nil || cand.firstStart.Before(best.firstStart) ||
			(cand.firstStart.Equal(best.firstStart) && cand.sh.Index < best.sh.Index) {
			best = cand
		}
	}
	if best == nil {
		return nil, false
	}
	best.hedged = true
	best.inflight++
	best.holders[w] = true
	st.m.hedges.Add(1)
	return best, true
}

// hedgeHorizon reports the earliest instant at which some in-flight shard
// becomes hedge-eligible. The fleetsim event loop uses it to know when to
// re-poll an idle slot; the HTTP slot loops just poll on a short timer.
func (st *runState) hedgeHorizon(hedgeAfter time.Duration) (time.Time, bool) {
	if hedgeAfter < 0 {
		return time.Time{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var earliest time.Time
	found := false
	for cand := range st.inflight {
		if cand.done || cand.hedged {
			continue
		}
		at := cand.firstStart.Add(hedgeAfter)
		if !found || at.Before(earliest) {
			earliest, found = at, true
		}
	}
	return earliest, found
}

// release records a failed dispatch. The shard is requeued once no sibling
// dispatch is still running and the shard has not completed meanwhile; a
// shard out of attempts fails the whole run. A shed (503 or 429) says the
// worker is busy, not that the shard is bad, so it spends no attempt. It
// reports whether the shard went back on the queue and its failure count
// so far; live is false when the dispatch had already been settled by a
// membership eviction, in which case nothing is charged.
func (st *runState) release(s *shardState, w *worker, err error) (requeued bool, attempts int, live bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !s.holders[w] {
		// evictLeases already settled this dispatch: the holder entry is
		// the lease, and it is gone. The late failure is an artifact of the
		// eviction teardown, not new information about the shard.
		return false, s.failures, false
	}
	s.inflight--
	delete(s.holders, w)
	s.lastFailed = w
	var de *DispatchError
	if !errors.As(err, &de) || (de.Status != http.StatusServiceUnavailable && de.Status != http.StatusTooManyRequests) {
		s.failures++
	}
	if s.inflight == 0 {
		delete(st.inflight, s)
	}
	if s.done || s.inflight > 0 {
		// A hedge sibling already delivered the shard or is still trying;
		// nothing to requeue.
		return false, s.failures, true
	}
	if s.failures >= st.maxAttempts {
		st.fatal = fmt.Errorf("cluster: %v failed %d times, last error: %w", s.sh, s.failures, err)
		st.closeDoneLocked()
		st.wakeLocked()
		return false, s.failures, true
	}
	s.hedged = false
	st.pending = append(st.pending, s)
	st.wakeLocked()
	return true, s.failures, true
}

// evictLeases settles every lease the departing worker holds: the shard's
// inflight count drops and — unless the shard is done or a hedge sibling
// still carries it — it requeues immediately, without waiting out the
// lease timeout and without charging the shard's attempt budget (eviction
// is a membership event, not evidence about the shard). lastFailed is set
// so the next lease counts as a reassignment. Results the worker delivers
// after this are dropped by the holder checks in complete and release.
func (st *runState) evictLeases(w *worker) (requeued int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for s := range st.inflight {
		if !s.holders[w] {
			continue
		}
		delete(s.holders, w)
		s.inflight--
		if s.inflight == 0 {
			delete(st.inflight, s)
		}
		if s.done || s.inflight > 0 {
			continue
		}
		s.hedged = false
		s.lastFailed = w
		st.pending = append(st.pending, s)
		requeued++
	}
	if requeued > 0 {
		st.wakeLocked()
	}
	return requeued
}

// complete merges a successful dispatch. Every result is deposited — the
// sink's idempotent merge keeps the first and counts the rest as dedup
// drops — but only the first completion advances the done count and the
// worker's tally. It reports whether this dispatch was the first to
// deliver the shard; live is false when the dispatch had already been
// settled by a membership eviction, in which case the late result is
// dropped entirely (the requeued shard will be recomputed, and identical
// records would dedup anyway).
func (st *runState) complete(s *shardState, w *worker, batches [][]campaign.Record) (first bool, live bool, err error) {
	st.mu.Lock()
	if !s.holders[w] {
		st.mu.Unlock()
		return false, false, nil
	}
	s.inflight--
	delete(s.holders, w)
	if s.inflight == 0 {
		delete(st.inflight, s)
	}
	first = !s.done
	s.done = true
	if first {
		st.doneCount++
		st.unitsLeft -= s.sh.Len()
		w.completions.Add(1)
	}
	if st.unitsLeft == 0 {
		st.closeDoneLocked()
	}
	st.mu.Unlock()

	for off, recs := range batches {
		if err := st.sink.Deposit(s.sh.Start+off, recs); err != nil {
			return first, true, err
		}
	}
	st.wakeAll()
	return first, true, nil
}

func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.fatal == nil {
		st.fatal = err
	}
	st.closeDoneLocked()
	st.wakeLocked()
	st.mu.Unlock()
}

func (st *runState) err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fatal
}

func (st *runState) finished() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fatal != nil || st.unitsLeft == 0
}

// counts snapshots (pending, inflight, done, carved) for the metrics page.
func (st *runState) counts() (pending, inflight, done, carved int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending), len(st.inflight), st.doneCount, st.carved
}

// sizeSummary reports the min, median and max of the shard sizes carved so
// far (zeros before the first carve).
func (st *runState) sizeSummary() (min, median, max int) {
	st.mu.Lock()
	sizes := append([]int(nil), st.sizes...)
	st.mu.Unlock()
	return summarizeSizes(sizes)
}

// summarizeSizes reduces a carved-size list to (min, median, max); an
// empty list reads as zeros.
func summarizeSizes(sizes []int) (min, median, max int) {
	if len(sizes) == 0 {
		return 0, 0, 0
	}
	sort.Ints(sizes)
	return sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]
}

func (st *runState) wakeLocked() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

func (st *runState) wakeAll() {
	st.mu.Lock()
	st.wakeLocked()
	st.mu.Unlock()
}

// sleep parks a slot until a wakeup, the timer, or cancellation — whichever
// comes first.
func (st *runState) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		d = time.Millisecond
	}
	t := st.clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-st.wake:
	case <-t.C():
	case <-ctx.Done():
	}
}

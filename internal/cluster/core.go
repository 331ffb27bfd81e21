package cluster

import (
	"fmt"
	"sort"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/membership"
)

// Core is the coordinator's scheduling state machine with the transport
// stripped away: the demand-driven shard carver, the adaptive sizer, the
// lease ledger (requeue, hedging, attempt budgets) and the per-worker
// backoff gates and circuit breakers. Coordinator.Run drives a Core over
// HTTP; the fleetsim package drives the very same code over simulated
// workers on virtual time, which is what makes controller decisions and
// makespans testable exactly.
//
// The fleet is elastic: AddWorker admits a member mid-run, DropWorker
// evicts one — its leases requeue immediately (no lease-timeout wait) and
// its scheduling state (EWMA, breaker, histograms) retires with it.
// Results a departed worker delivers late are dropped. The fleet is also
// the member table of the fleet endpoint: Join and Beat keep a joined
// worker's registration on the same entry whose gate decides its leases.
//
// The protocol per worker slot is: Gate → Acquire → run the shard however
// the caller likes → Complete or Fail. All methods are safe for concurrent
// use.
type Core struct {
	cfg   Config
	m     *coordMetrics
	st    *runState
	fleet *fleet
}

// Lease is one dispatch: a contiguous unit range leased to a worker.
type Lease struct {
	// Shard is the unit range to execute.
	Shard campaign.Shard
	// Hedge marks a speculative duplicate of a shard already in flight
	// elsewhere; the first result wins.
	Hedge bool

	s *shardState
	w *worker
}

// NewCore builds the scheduling core of one run; New calls it for the
// HTTP coordinator and fleetsim for its simulated fleet. cfg.Workers
// supplies the founding worker names (no network traffic happens; all
// workers start marked up, which Coordinator.Run's Probe overwrites before
// the first lease; the list may be empty when cfg.Elastic, with members
// arriving via AddWorker), totalUnits is the compiled unit count, and
// done — nil, or one flag per unit — marks units satisfied by a resume,
// which are nil-deposited into the sink exactly like a local resume and
// never leased.
func NewCore(cfg Config, totalUnits int, done []bool, sink *campaign.Sink) (*Core, error) {
	cfg = cfg.withDefaults()
	if done != nil && len(done) != totalUnits {
		return nil, fmt.Errorf("cluster: done has %d flags for %d units", len(done), totalUnits)
	}
	if done == nil {
		done = make([]bool, totalUnits)
	}
	m := newMetrics()
	rng := newLockedRand(cfg.Seed)
	core := &Core{cfg: cfg, m: m}
	fl, err := newFleet(&core.cfg, m, rng)
	if err != nil {
		return nil, err
	}
	for _, w := range fl.snapshot() {
		w.markUp()
	}
	core.fleet = fl
	core.st = newRunState(&core.cfg, m, fl.liveCount(), totalUnits, done, sink)
	for i, d := range done {
		if d {
			if err := sink.Deposit(i, nil); err != nil {
				return nil, err
			}
		}
	}
	return core, nil
}

// Config returns the core's configuration with defaults resolved.
func (c *Core) Config() Config { return c.cfg }

// Workers is the total number of worker indexes ever allocated, departed
// members included; indexes run [0, Workers). Use WorkerGone to tell
// tombstones from live members.
func (c *Core) Workers() int { return c.fleet.size() }

// LiveWorkers is the number of current members (joined and not evicted).
func (c *Core) LiveWorkers() int { return c.fleet.liveCount() }

// WorkerGone reports whether worker i has been evicted from the fleet.
func (c *Core) WorkerGone(i int) bool { return c.fleet.get(i).isGone() }

// AddWorker admits a member to the fleet, before or during the run, and
// returns its index. A name that is already live is revived in place
// (failure state reset, drain cleared) and reports added=false; a departed
// name gets a fresh index with fresh scheduling state.
func (c *Core) AddWorker(name string) (index int, added bool, err error) {
	index, added, err = c.fleet.add(name)
	if err != nil {
		return 0, false, err
	}
	c.st.sizer.setSlots(c.fleet.liveCount() * c.cfg.Slots)
	c.st.wakeAll()
	return index, added, nil
}

// DropWorker evicts a member: it becomes a tombstone, every lease it holds
// requeues immediately (no lease-timeout wait, no attempt-budget charge),
// and its scheduling state — EWMA, dispatch histograms — retires so state
// stays bounded by live membership. It reports how many shards requeued
// and whether the name was a live member.
func (c *Core) DropWorker(name string) (requeued int, ok bool) {
	w, ok := c.fleet.drop(name)
	if !ok {
		return 0, false
	}
	requeued = c.st.evictLeases(w)
	c.st.sizer.retire(w.url)
	c.m.retire(w.url)
	c.st.sizer.setSlots(c.fleet.liveCount() * c.cfg.Slots)
	c.st.wakeAll()
	return requeued, true
}

// Join registers a worker that joined through the fleet endpoint and
// returns its index and fleet row. A name that is not a live member goes
// through AddWorker: added reports a fresh index, and a -workers founder
// is revived in place. A live member's re-join refreshes its registration
// in place and keeps its breaker and backoff. Either way the join's drain
// flag sets the gate.
func (c *Core) Join(req membership.JoinRequest) (index int, added bool, m membership.Member, err error) {
	index, w, ok := c.fleet.member(req.ID)
	if !ok {
		if index, added, err = c.AddWorker(req.ID); err != nil {
			return 0, false, membership.Member{}, err
		}
		w = c.fleet.get(index)
	}
	m, fresh := w.register(req, c.cfg.Clock.Now())
	if fresh {
		c.m.joins.Add(1)
		c.cfg.Logf("membership: %s joined (catalog %s, go %s)", req.ID, req.Fingerprint, req.Build.GoVersion)
	}
	if !req.Draining {
		c.st.wakeAll()
	}
	return index, added, m, nil
}

// Beat records one heartbeat of a live member: its load signals, a fresh
// deadline, and its drain flag, which closes or opens its gate. A worker
// that is not a live member fails with membership.ErrUnknownMember, which
// tells its agent to re-join.
func (c *Core) Beat(id string, hb membership.Heartbeat) (membership.Member, error) {
	_, w, ok := c.fleet.member(id)
	if !ok {
		return membership.Member{}, membership.ErrUnknownMember
	}
	m, wasDraining, ok := w.beat(hb, c.cfg.Clock.Now())
	if !ok {
		return membership.Member{}, membership.ErrUnknownMember
	}
	switch {
	case hb.Draining && !wasDraining:
		c.cfg.Logf("membership: %s draining", id)
	case !hb.Draining && wasDraining:
		c.cfg.Logf("membership: %s active again", id)
		c.st.wakeAll()
	}
	return m, nil
}

// Members lists the live members, sorted by ID. A -workers founder that
// never joined is not one.
func (c *Core) Members() []membership.Member {
	var out []membership.Member
	for _, w := range c.fleet.snapshot() {
		if m, ok := w.asMember(); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counters reports the monotonic totals of joins, departures announced
// through Coordinator.Leave, and evictions by Coordinator.Sweep.
func (c *Core) Counters() (joins, leaves, evictions int64) {
	return c.m.joins.Load(), c.m.leaves.Load(), c.m.evictions.Load()
}

// Backlog is the number of runnable units not yet merged — the autoscaling
// advisor's demand signal.
func (c *Core) Backlog() int {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return c.st.unitsLeft
}

// MeanUnitSeconds is the live fleet's mean per-unit service time — the
// autoscaling advisor's rate signal. It comes from the adaptive sizer's
// EWMAs; before their first sample, from the rates members report in
// heartbeats; before either, it is 0.
func (c *Core) MeanUnitSeconds() float64 {
	if mean := c.st.sizer.meanPerUnit(); mean > 0 {
		return mean
	}
	var sum float64
	n := 0
	for _, m := range c.Members() {
		if m.UnitSeconds > 0 {
			sum += m.UnitSeconds
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Gate reports whether worker i may be handed a dispatch now; when not,
// it returns how long to wait before asking again (backoff, Retry-After,
// breaker cooldown, or drain).
func (c *Core) Gate(i int) (wait time.Duration, ok bool) { return c.fleet.get(i).gate() }

// Acquire leases worker i its next dispatch: a requeued shard first, then
// a fresh carve sized by the adaptive controller, then — when both are
// drained — a straggler to hedge. ok is false when nothing is runnable
// for this worker right now.
func (c *Core) Acquire(i int) (l Lease, ok bool) {
	w := c.fleet.get(i)
	s, hedge := c.st.acquire(w, c.cfg.HedgeAfter)
	if s == nil {
		return Lease{}, false
	}
	return Lease{Shard: s.sh, Hedge: hedge, s: s, w: w}, true
}

// Complete merges a successful dispatch that took elapsed: the worker's
// failure state resets, the sizer observes the service time, and the
// records deposit through the idempotent sink. first reports whether this
// dispatch was the one that delivered the shard (hedge losers and late
// duplicates return false). A result arriving after the worker was evicted
// is dropped without effect. A sink error is fatal to the run.
func (c *Core) Complete(l Lease, batches [][]campaign.Record, elapsed time.Duration) (first bool, err error) {
	first, live, err := c.st.complete(l.s, l.w, batches)
	if !live {
		return false, nil
	}
	c.m.observeShard(l.w.url, true, elapsed)
	l.w.ok()
	c.st.sizer.observe(l.w.url, l.Shard.Len(), elapsed)
	if err != nil {
		c.st.fail(err)
	}
	return first, err
}

// Fail charges a failed dispatch: the worker backs off (honoring any
// Retry-After carried by a *DispatchError) and the shard requeues unless a
// hedge sibling still carries it — or the attempt budget is spent, which
// fails the run. A shed (503 or 429) spends no attempt. A failure arriving
// after the worker was evicted is dropped without effect (its lease
// already requeued). It reports whether the shard went back on the queue
// and how many attempts it has burned.
func (c *Core) Fail(l Lease, err error, elapsed time.Duration) (requeued bool, attempts int) {
	requeued, attempts, live := c.st.release(l.s, l.w, err)
	if !live {
		return false, attempts
	}
	c.m.observeShard(l.w.url, false, elapsed)
	l.w.fail(err)
	if requeued {
		c.m.retries.Add(1)
	}
	return requeued, attempts
}

// Finished reports whether the run is over: every unit merged, or a fatal
// error recorded.
func (c *Core) Finished() bool { return c.st.finished() }

// Err returns the run's fatal error, if any.
func (c *Core) Err() error { return c.st.err() }

// HedgeHorizon reports the earliest instant at which some in-flight shard
// becomes hedge-eligible (false when hedging is disabled or nothing is in
// flight). The fleetsim event loop uses it to schedule its next poll; the
// HTTP slot loops just poll on a short timer.
func (c *Core) HedgeHorizon() (time.Time, bool) { return c.st.hedgeHorizon(c.cfg.HedgeAfter) }

// Stats snapshots the run so far.
func (c *Core) Stats() Stats {
	st := c.st
	st.mu.Lock()
	units, carved, skipped := st.units, st.carved, st.skipped
	var sizes []int
	if len(st.sizes) > 0 {
		sizes = append([]int(nil), st.sizes...)
	}
	st.mu.Unlock()
	workers := c.fleet.snapshot()
	s := Stats{
		Units:         units,
		Shards:        carved,
		Skipped:       skipped,
		Records:       st.sink.Written(),
		Retries:       c.m.retries.Load(),
		Hedges:        c.m.hedges.Load(),
		Reassignments: c.m.reassignments.Load(),
		DedupDropped:  int64(st.sink.Deduped()),
		WorkerShards:  make(map[string]int64, len(workers)),
	}
	s.ShardSizeMin, s.ShardSizeMedian, s.ShardSizeMax = summarizeSizes(sizes)
	for _, w := range workers {
		// += so a member that departed and rejoined under the same name
		// (two worker entries) reports one combined tally.
		s.WorkerShards[w.url] += w.completions.Load()
	}
	return s
}

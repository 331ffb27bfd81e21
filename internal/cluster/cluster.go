// Package cluster implements oracleherd's coordinator: it compiles a
// campaign.Spec into deterministic units, leases contiguous unit shards to
// a fleet of oracled workers over the HTTP/JSON API (POST /v1/shard), and
// merges the per-shard results into the same resumable JSONL artifact
// format the local engine writes. Because unit seeds and record contents
// are pure functions of (spec, seed) and the sink flushes strictly in unit
// index order, a distributed run is byte-identical — after canonical unit
// ordering, modulo wall-time fields — to a single-machine campaign.Run of
// the same spec, no matter how the coordinator carves, retries, hedges or
// reassigns shards.
//
// Shard sizes are adaptive by default: the coordinator keeps an EWMA of
// each worker's per-unit service time and sizes every lease so one shard
// takes about TargetShardDuration on that worker, shrinking toward a floor
// near the campaign tail so a slow worker never holds the makespan hostage
// with one oversized final shard. MinShardSize == MaxShardSize pins every
// shard at that size.
//
// The coordinator is built for an unreliable fleet:
//
//   - every dispatch carries a lease deadline; a crashed or hung worker's
//     shard is reassigned when the lease expires
//   - failed dispatches retry with exponential backoff plus jitter,
//     honoring Retry-After on 503 and 429 shed responses
//   - workers that fail repeatedly are circuit-broken and re-admitted
//     through a half-open trial after a cooldown
//   - stragglers are hedged: a shard in flight longer than HedgeAfter is
//     re-dispatched to a different idle worker, the first result wins, and
//     the loser's records are dropped by the idempotent sink
//   - /metrics (see Coordinator.Metrics) exposes shards in flight,
//     retries, hedges, reassignments, dedup drops, chosen shard sizes and
//     per-worker latency histograms in Prometheus text format
//
// A Coordinator drives one run. New compiles the spec and builds the
// run's scheduling state machine, Core, through NewCore; Run probes the
// fleet, starts each live worker's lease slots and waits. fleetsim builds
// its Core through the same NewCore, and every time read goes through an
// injectable Clock, so it drives the identical decision logic on virtual
// time.
//
// The Coordinator is also the elastic fleet's member table
// (membership.Fleet): workers that join through oracleherd's fleet
// endpoint live in the same fleet that hands out leases, and Sweep evicts
// the ones whose re-joins (their heartbeats) stop.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/membership"
)

// Config describes the fleet and the coordinator's robustness envelope.
// Zero values select the documented defaults.
type Config struct {
	// Workers lists the oracled base URLs (e.g. "http://10.0.0.7:8080").
	// At least one worker must pass the initial health probe, unless the
	// fleet is Elastic.
	Workers []string
	// Elastic admits a fleet with no configured workers: members join a
	// running campaign through Coordinator.Join and leave it through Leave
	// or Sweep, driven by oracleherd's fleet endpoint. An elastic Probe
	// tolerates zero reachable workers — the run blocks until joined
	// members finish it.
	Elastic bool
	// MinShardSize is the adaptive floor (default 4): the first lease to a
	// worker with no latency history, and the smallest shard the tail
	// guard shrinks to. Setting it equal to MaxShardSize pins every shard
	// at that size.
	MinShardSize int
	// MaxShardSize is the adaptive ceiling (default 512 — stay under
	// oracled's default -max-shard-units of 1024).
	MaxShardSize int
	// TargetShardDuration is the per-shard service time adaptive sizing
	// aims for (default 2s): long enough to amortize dispatch overhead,
	// short enough that a lease expiry, retry or hedge is cheap.
	TargetShardDuration time.Duration
	// Slots is the number of shards leased to one worker at a time
	// (default 2): enough to keep a worker's queue fed without parking
	// most of the campaign on whichever worker answers first.
	Slots int
	// LeaseTimeout bounds one shard dispatch end to end (default 2m). An
	// expired lease counts as a dispatch failure and the shard is
	// requeued, so a crashed worker cannot strand its shards.
	LeaseTimeout time.Duration
	// HedgeAfter re-dispatches a shard still in flight after this long to
	// a second worker (default 30s; negative disables hedging). The first
	// result wins; the loser's records dedup away in the sink.
	HedgeAfter time.Duration
	// MaxAttempts is the per-shard dispatch budget (default 8). A shard
	// failing this many times fails the run. Every failure is charged
	// except a shed (503 or 429): a fleet that only sheds makes the run
	// wait, not fail.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the per-worker retry backoff
	// (defaults 100ms and 5s). The delay doubles per consecutive failure,
	// jittered to half-to-full value, and is overridden upward by a
	// worker's Retry-After hint.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens a worker's circuit after this many
	// consecutive failures (default 3); BreakerCooldown (default 10s) is
	// how long the circuit stays open before one half-open trial.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MemberTTL is how long a joined member may go without re-joining
	// before Sweep probes it (default 10s).
	MemberTTL time.Duration
	// Seed drives retry jitter and nothing else; results never depend on
	// it. Zero selects 1.
	Seed int64
	// Client is the HTTP client for all worker calls (default: a fresh
	// client with no global timeout; per-dispatch contexts bound every
	// call).
	Client *http.Client
	// APIKey, when non-empty, is sent as X-API-Key on every worker call so
	// multi-tenant workers (oracled -tenant-store) can authenticate and
	// meter the coordinator like any other tenant.
	APIKey string
	// Clock abstracts time for backoff, breakers, hedging and latency
	// observation (default: the real time package). Tests and fleetsim
	// substitute virtual clocks; production code never sets it.
	Clock Clock
	// Logf, when set, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MinShardSize <= 0 {
		c.MinShardSize = 4
	}
	if c.MaxShardSize <= 0 {
		c.MaxShardSize = 512
	}
	if c.MaxShardSize < c.MinShardSize {
		c.MaxShardSize = c.MinShardSize
	}
	if c.TargetShardDuration <= 0 {
		c.TargetShardDuration = 2 * time.Second
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Minute
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MemberTTL <= 0 {
		c.MemberTTL = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats summarizes one distributed run.
type Stats struct {
	// Units describes the compiled work list; Skipped counts units
	// satisfied by the resume set before dispatch. Shards is the number of
	// shards actually carved and dispatched — under adaptive sizing it is
	// not known in advance.
	Units   int
	Shards  int
	Skipped int
	// ShardSizeMin, ShardSizeMedian and ShardSizeMax summarize the carved
	// shard sizes: the controller's spread, or all three equal when
	// MinShardSize == MaxShardSize (the final short shard aside).
	ShardSizeMin    int
	ShardSizeMedian int
	ShardSizeMax    int
	// Records is the number of JSONL records the sink wrote.
	Records int
	// Retries counts failed dispatches that were requeued, Hedges
	// speculative re-dispatches of stragglers, Reassignments shards whose
	// retry landed on a different worker than the one that failed it.
	Retries       int64
	Hedges        int64
	Reassignments int64
	// DedupDropped counts records the sink dropped as duplicates (hedge
	// losers and re-runs of already-done units); a unit skipped on resume
	// drops none.
	DedupDropped int64
	// WorkerShards counts successful shard completions per worker URL.
	WorkerShards map[string]int64
}

// Coordinator drives one distributed campaign over a fleet that may change
// while the run is live: Join admits a worker (spawning its lease slots
// mid-run) and takes its re-joins as heartbeats (a draining one gets no
// new leases but keeps those it holds), and Leave and Sweep remove it
// (its leases requeue immediately and its in-flight dispatches are
// cancelled).
// Construct with New and call Run once; Metrics and the fleet methods may
// be served concurrently with Run.
type Coordinator struct {
	cfg  Config
	spec *campaign.Spec
	core *Core

	mu  sync.Mutex
	ran bool
	// live is Run's context while Run is live and nil otherwise: Join
	// spawns slots only into a live run.
	live  context.Context
	slots sync.WaitGroup
	// cancels aborts a worker's in-flight dispatches on eviction, keyed by
	// worker URL (a live URL has exactly one index).
	cancels map[string]context.CancelFunc
}

// New validates and compiles spec and builds the coordinator for one run
// of it over the fleet in cfg, merging into sink, which writes the JSONL
// artifact in unit-index order. done marks unit keys already present in a
// resumed artifact or its journal; those units are nil-deposited now,
// exactly like a local resume, and never dispatched.
// The run's scheduling Core comes from NewCore, the constructor fleetsim
// uses. No network traffic happens until Probe or Run.
func New(cfg Config, spec *campaign.Spec, sink *campaign.Sink, done map[string]bool) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	units := spec.Units()
	doneIdx := make([]bool, len(units))
	for i, u := range units {
		doneIdx[i] = done[u.Key()]
	}
	core, err := NewCore(cfg, spec, doneIdx, sink)
	if err != nil {
		return nil, err
	}
	return &Coordinator{cfg: core.Config(), spec: spec, core: core, cancels: make(map[string]context.CancelFunc)}, nil
}

// Probe health-checks every worker. It succeeds when at least one worker
// is reachable and every reachable worker's catalog fingerprint matches
// the coordinator's. Unreachable workers stay in the fleet, charged one
// failure like a failed dispatch; Run probes each again once its backoff
// lapses and leases it nothing until its fingerprint matches (see vet).
func (c *Coordinator) Probe(ctx context.Context) error {
	local := catalog.Fingerprint()
	workers := c.core.fleet.snapshot()
	var wg sync.WaitGroup
	for _, w := range workers {
		if w.isGone() {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.probe(ctx)
		}(w)
	}
	wg.Wait()
	up := 0
	for _, w := range workers {
		if w.isGone() {
			continue
		}
		h := w.health()
		if !h.up {
			c.cfg.Logf("cluster: worker %s unreachable: %v", w.url, h.err)
			continue
		}
		up++
		c.cfg.Logf("cluster: worker %s up: go %s module %s revision %s catalog %s",
			w.url, h.build.GoVersion, h.build.ModuleVersion, h.build.Revision, h.fingerprint)
		if h.fingerprint != local {
			return fmt.Errorf("cluster: %w", &membership.FingerprintError{ID: w.url, Got: h.fingerprint, Want: local})
		}
	}
	if up == 0 {
		if c.cfg.Elastic {
			// An elastic fleet may legitimately be empty (or entirely
			// unreachable) at launch; members join once the run is live.
			c.cfg.Logf("cluster: elastic fleet: no reachable members yet, waiting for joins")
			return nil
		}
		return fmt.Errorf("cluster: no worker of %d passed the health probe", len(workers))
	}
	return nil
}

// Run probes the fleet, starts the lease slots of every live worker, and
// returns when every unit has merged, the context is cancelled, or a
// shard exhausts its attempt budget. A Coordinator runs once: a second
// call fails.
func (c *Coordinator) Run(ctx context.Context) (Stats, error) {
	c.mu.Lock()
	ran := c.ran
	c.ran = true
	c.mu.Unlock()
	if ran {
		return Stats{}, errors.New("cluster: Run called twice; a Coordinator drives one run")
	}
	if err := c.Probe(ctx); err != nil {
		return Stats{}, err
	}
	core := c.core
	c.cfg.Logf("cluster: %s %s: %d units (%d to run, %d resumed) across %d workers, %d-%d units/shard",
		c.spec.Name, c.spec.Hash(), core.st.units, core.Backlog(), core.st.skipped, core.LiveWorkers(),
		c.cfg.MinShardSize, c.cfg.MaxShardSize)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.live = runCtx
	for i := 0; i < core.Workers(); i++ {
		if !core.WorkerGone(i) {
			c.spawnSlotsLocked(i)
		}
	}
	c.mu.Unlock()

	// Wait for the run itself, not the slot loops: an elastic run may
	// start with no slots at all and is finished by whoever joined. Then
	// cancel so in-flight dispatches (hedge losers, doomed retries) tear
	// down immediately instead of waiting out their leases.
	select {
	case <-core.st.doneCh:
	case <-runCtx.Done():
	}
	c.mu.Lock()
	c.live = nil
	c.mu.Unlock()
	cancel()
	c.slots.Wait()

	stats := core.Stats()
	if err := core.Err(); err != nil {
		return stats, err
	}
	return stats, ctx.Err()
}

// spawnSlotsLocked launches worker i's lease slots into the live run, with
// its own cancel so an eviction can abort the worker's in-flight
// dispatches without touching the rest of the fleet. A worker whose
// catalog fingerprint no probe or join has shown — a -workers founder
// unreachable at launch — gets its slots only once vet passes it. Callers
// hold c.mu with c.live set.
func (c *Coordinator) spawnSlotsLocked(i int) {
	ctx, cancel := context.WithCancel(c.live)
	w := c.core.fleet.get(i)
	c.cancels[w.url] = cancel
	start := func() {
		for s := 0; s < c.cfg.Slots; s++ {
			c.slots.Add(1)
			go func() {
				defer c.slots.Done()
				c.slotLoop(ctx, i)
			}()
		}
	}
	if w.vetted() {
		start()
		return
	}
	c.slots.Add(1)
	go func() {
		defer c.slots.Done()
		if c.vet(ctx, w) {
			start()
		}
	}()
}

// vet probes an unvetted worker whenever its backoff gate opens, until a
// probe or a join shows its catalog fingerprint. It reports whether the
// fingerprint matches the coordinator's; a skewed worker is dropped from
// the fleet and logged, as Join refuses a skewed join.
func (c *Coordinator) vet(ctx context.Context, w *worker) bool {
	for {
		if c.core.Finished() || ctx.Err() != nil || w.isGone() {
			return false
		}
		if w.vetted() {
			return true
		}
		if wait, ok := w.gate(); !ok {
			c.core.st.sleep(ctx, wait)
			continue
		}
		if up, _, _ := w.probe(ctx); !up {
			continue // charged a failure: the gate waits out its backoff
		}
		if h := w.health(); h.fingerprint != catalog.Fingerprint() {
			c.mu.Lock()
			c.cfg.Logf("cluster: worker %s dropped: %v", w.url,
				&membership.FingerprintError{ID: w.url, Got: h.fingerprint, Want: catalog.Fingerprint()})
			c.evictLocked(w.url)
			c.mu.Unlock()
			return false
		}
		w.ok() // clears the probe failures, and a half-open trial the gate granted
		return true
	}
}

// Join admits a worker that registered through the fleet endpoint. A
// catalog fingerprint other than the coordinator's is refused with a
// *membership.FingerprintError; Core.Join does the rest.
// A fresh index gets its lease slots at once while Run is live, or starts
// with the founders when it joins before Run.
func (c *Coordinator) Join(req membership.JoinRequest) (membership.Member, error) {
	if req.ID == "" {
		return membership.Member{}, errors.New("membership: join with empty id")
	}
	if want := catalog.Fingerprint(); req.Fingerprint != want {
		return membership.Member{}, &membership.FingerprintError{ID: req.ID, Got: req.Fingerprint, Want: want}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, added, m, err := c.core.Join(req)
	if err != nil || !added {
		return m, err
	}
	if c.live == nil {
		c.cfg.Logf("cluster: worker %s joined", req.ID)
		return m, nil
	}
	c.cfg.Logf("cluster: worker %s joined mid-run", req.ID)
	c.spawnSlotsLocked(i)
	return m, nil
}

// Members lists the live members through Core.Members.
func (c *Coordinator) Members() []membership.Member { return c.core.Members() }

// Counters reports the membership totals through Core.Counters.
func (c *Coordinator) Counters() (joins, leaves, evictions int64) { return c.core.Counters() }

// Leave evicts a member that announced its departure (see evictLocked).
// It reports whether id was a live member; a -workers founder that never
// joined is not one.
func (c *Coordinator) Leave(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, _, ok := c.core.fleet.member(id); !ok {
		return false
	}
	c.core.m.leaves.Add(1)
	c.cfg.Logf("membership: %s left", id)
	c.evictLocked(id)
	return true
}

// Sweep evicts members whose re-joins stopped. Each member past its
// deadline (last join plus MemberTTL) gets one /healthz probe, in ID
// order and outside every lock:
//
//   - unreachable: evicted (see evictLocked);
//   - draining: handed no new leases and held max(MemberTTL, Retry-After)
//     more, since a drain promises that held leases are still being
//     finished;
//   - healthy: heartbeats lost but the service alive, held one more
//     MemberTTL.
//
// oracleherd runs it on a ticker.
func (c *Coordinator) Sweep(ctx context.Context) {
	now := c.cfg.Clock.Now()
	var due []*worker
	for _, w := range c.core.fleet.snapshot() {
		if w.overdue(now) {
			due = append(due, w)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].url < due[j].url })
	for _, w := range due {
		up, draining, retryAfter := w.probe(ctx)
		c.mu.Lock()
		switch {
		case !w.overdue(now):
			// Left, evicted, or a re-join landed while probing.
		case up && draining:
			grace := max(c.cfg.MemberTTL, retryAfter)
			w.extend(now.Add(grace))
			c.cfg.Logf("membership: %s silent but draining, %s grace", w.url, grace)
		case up:
			w.extend(now.Add(c.cfg.MemberTTL))
			c.cfg.Logf("membership: %s missed heartbeats but answers /healthz, keeping", w.url)
		default:
			c.core.m.evictions.Add(1)
			c.cfg.Logf("membership: %s evicted (silent past TTL)", w.url)
			c.evictLocked(w.url)
		}
		c.mu.Unlock()
	}
}

// evictLocked removes a worker from the fleet through Core.DropWorker:
// every lease it holds requeues immediately (no lease-timeout wait, no
// attempt charged), its in-flight dispatches are cancelled, and its
// scheduling state (EWMA, histograms) retires with it. Callers hold c.mu.
func (c *Coordinator) evictLocked(url string) {
	requeued, ok := c.core.DropWorker(url)
	if !ok {
		return
	}
	if cancel := c.cancels[url]; cancel != nil {
		cancel()
		delete(c.cancels, url)
	}
	c.cfg.Logf("cluster: worker %s evicted, %d leases requeued", url, requeued)
}

// Core returns the run's scheduling core, for its signals: Backlog and
// MeanUnitSeconds feed the autoscaling advisor. The fleet changes through
// Join, Leave and Sweep, which also start and stop slot loops.
func (c *Coordinator) Core() *Core { return c.core }

// slotLoop is one lease slot on worker i: it acquires the next runnable
// shard from the core (requeued work first, then fresh carves, then hedge
// candidates), dispatches it over HTTP under the lease deadline, and
// reports the outcome back. The loop exits when the run finishes, fails,
// the worker is evicted, or the context is cancelled.
func (c *Coordinator) slotLoop(ctx context.Context, i int) {
	core := c.core
	st, w := core.st, core.fleet.get(i)
	for {
		if core.Finished() || ctx.Err() != nil || w.isGone() {
			st.wakeAll() // unblock sibling slots so the run tears down promptly
			return
		}
		if wait, ok := core.Gate(i); !ok {
			st.sleep(ctx, wait)
			continue
		}
		l, ok := core.Acquire(i)
		if !ok {
			st.sleep(ctx, 25*time.Millisecond)
			continue
		}
		if l.Hedge {
			c.cfg.Logf("cluster: hedging %v on %s", l.Shard, w.url)
		}
		dispatchCtx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
		start := c.cfg.Clock.Now()
		batches, err := w.dispatch(dispatchCtx, c.spec, l.Shard)
		cancel()
		elapsed := c.cfg.Clock.Now().Sub(start)
		if err != nil {
			if ctx.Err() != nil {
				// The run was cancelled or already finished; the failure is
				// an artifact of teardown, not the worker's fault.
				continue
			}
			if requeued, attempts := core.Fail(l, err, elapsed); requeued {
				c.cfg.Logf("cluster: %v failed on %s (attempt %d/%d): %v", l.Shard, w.url, attempts, c.cfg.MaxAttempts, err)
			}
			continue
		}
		if _, err := core.Complete(l, batches, elapsed); err != nil {
			return
		}
	}
}

// Metrics returns an http.Handler exposing the coordinator's Prometheus
// text-format metrics; safe to serve while Run is active.
func (c *Coordinator) Metrics() http.Handler { return http.HandlerFunc(c.handleMetrics) }

// lockedRand is the jitter source shared by worker backoff timers.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

// jitter returns a duration in [d/2, d).
func (r *lockedRand) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)))
}

// Package fleetsim is a deterministic, in-process fleet simulator for the
// oracleherd coordinator. It drives the real scheduling core —
// cluster.Core, built by the same cluster.NewCore as a Coordinator's, with
// the carver, adaptive sizer, lease ledger, backoff gates and circuit
// breakers that Coordinator.Run drives over HTTP — with a single-threaded
// discrete-event loop on virtual time. Worker models declare per-unit
// service time, fixed dispatch overhead, crash windows, 503-storm windows,
// bounded service capacity with a finite queue, and fleet churn: joining
// mid-campaign, leaving gracefully, or going silent until the membership
// TTL evicts them. Shard results are computed with the real
// campaign.RunShard, so the merged artifact a simulation produces obeys
// the same byte-identity contract as a production run.
//
// Because nothing sleeps and every scheduling input (clock, jitter RNG,
// hedge selection, event order) is deterministic, tests can assert
// controller decisions and makespans exactly: the same Scenario always
// yields the same Result, down to the byte.
package fleetsim

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
)

// failLatency is how long a refused or shed dispatch takes to come back
// in virtual time — the cost of learning a worker is unhealthy.
const failLatency = time.Millisecond

// maxEvents bounds one simulation, turning a scheduling livelock into a
// test failure instead of a hang.
const maxEvents = 1 << 22

// Window is a half-open interval [From, To) of virtual time, measured
// from the start of the simulation.
type Window struct {
	From, To time.Duration
}

func (w Window) contains(t time.Duration) bool { return t >= w.From && t < w.To }

// Worker models one fleet member's service behavior and churn schedule.
type Worker struct {
	// Name identifies the worker in Config.Workers, stats and logs. Empty
	// defaults to "sim-<index>".
	Name string
	// UnitTime is the service time per unit in a shard.
	UnitTime time.Duration
	// Overhead is the fixed per-dispatch cost added to every shard.
	Overhead time.Duration
	// Jitter, when positive, adds a uniform [0, Jitter) draw to every
	// dispatch's service time, from a stream seeded by Config.Seed. The
	// draws are consumed in event order, so jittered scenarios stay
	// deterministic run to run.
	Jitter time.Duration
	// Capacity, when positive, bounds concurrent shard executions: the
	// worker has Capacity servers, and further dispatches wait in a queue.
	// Zero models an unbounded worker (every dispatch runs immediately),
	// the pre-queueing behavior.
	Capacity int
	// QueueCap is how many dispatches may wait behind busy servers; one
	// more and the worker sheds with 503 + RetryAfter, exactly like
	// oracled's bounded queue. Meaningful only with Capacity > 0.
	QueueCap int
	// JoinAt, when positive, keeps the worker out of the founding fleet:
	// it self-registers at that virtual instant, mid-campaign, and starts
	// pulling work immediately — the simulator's POST /v1/fleet/join.
	JoinAt time.Duration
	// LeaveAt, when positive, deregisters the worker at that instant. Its
	// leases requeue immediately and it is handed no further work.
	LeaveAt time.Duration
	// SilentFrom, when positive, hangs the worker at that instant: every
	// dispatch in flight (or arriving) after it never answers, dying at
	// the lease deadline. With Scenario.MemberTTL set, the membership
	// sweeper evicts the worker at SilentFrom+MemberTTL, requeueing its
	// leases right then instead of waiting out each lease.
	SilentFrom time.Duration
	// Down lists crash windows. A dispatch started inside one fails
	// immediately (connection refused); a worker whose window opens while
	// a shard is in flight drops the connection at that instant, and the
	// coordinator requeues the shard.
	Down []Window
	// Storm lists overload windows: dispatches started inside one are shed
	// with a 503 carrying RetryAfter.
	Storm []Window
	// RetryAfter is the Retry-After hint attached to storm and
	// queue-full responses.
	RetryAfter time.Duration
}

// Autoscale samples the autoscaling advisor — the same
// membership.Recommend that oracleherd serves on GET /v1/fleet — on a
// fixed virtual cadence, and optionally acts on it.
type Autoscale struct {
	// Interval is the sampling cadence; required.
	Interval time.Duration
	// Target is the desired remaining makespan fed to the advisor.
	Target time.Duration
	// Min and Max bound the recommendation (Max 0 = unbounded).
	Min, Max int
	// Template, when set, turns advice into action: whenever the
	// recommendation exceeds the live fleet, clones of the template named
	// auto-0, auto-1, ... join until the fleet matches it.
	Template *Worker
}

// AdvicePoint is one advisor sample on virtual time.
type AdvicePoint struct {
	// At is the sample instant, measured from the start.
	At time.Duration
	// Backlog is the runnable units not yet merged.
	Backlog int
	// UnitSeconds is the sizer's mean per-unit service estimate.
	UnitSeconds float64
	// Recommended is the fleet size the advisor asked for.
	Recommended int
	// Live is the fleet size at the sample.
	Live int
}

// Scenario is one simulation: a fleet, a campaign, and the coordinator
// configuration under test.
type Scenario struct {
	// Workers is the simulated fleet. Workers with JoinAt == 0 are
	// founders; the rest join mid-campaign. A scenario whose workers all
	// join later starts with an empty elastic fleet, like
	// oracleherd -listen with no -workers.
	Workers []Worker
	// Spec is the campaign to run.
	Spec *campaign.Spec
	// Config configures the scheduling core. Workers and Clock are owned
	// by the simulator and overwritten; everything else — MinShardSize,
	// MaxShardSize, TargetShardDuration, Slots, LeaseTimeout, HedgeAfter,
	// MaxAttempts, backoff and breaker settings — is honored with the usual
	// cluster defaults.
	Config cluster.Config
	// MemberTTL, when positive, simulates the heartbeat TTL sweeper: a
	// worker that goes silent is evicted at SilentFrom+MemberTTL and its
	// leases requeue immediately. Zero disables membership-driven
	// eviction, leaving only lease timeouts to recover hung work.
	MemberTTL time.Duration
	// Autoscale, when set, samples (and with a Template, acts on) the
	// autoscaling advisor during the run.
	Autoscale *Autoscale
	// Done optionally marks units (by index) as satisfied by a resume;
	// they are nil-deposited and never dispatched. Nil runs everything.
	Done []bool
}

// Result is what one simulation produced.
type Result struct {
	// Makespan is the virtual time at which the last needed unit merged.
	Makespan time.Duration
	// Stats is the scheduling core's run summary: shards carved, size
	// spread, retries, hedges, reassignments, per-worker completions.
	Stats cluster.Stats
	// Artifact is the merged JSONL artifact the sink wrote, identical in
	// canonical form to a local campaign.Run of the same spec. Its wall_ns
	// fields are zeroed (host wall time means nothing on virtual time), so
	// identical scenarios produce byte-identical artifacts.
	Artifact []byte
	// Events is the number of discrete events processed, a cheap
	// fingerprint of the whole schedule for determinism checks.
	Events int
	// Joins and Evictions count membership churn: mid-campaign
	// registrations and departures (graceful or TTL-evicted).
	Joins, Evictions int
	// Advice holds the advisor samples when Scenario.Autoscale is set.
	Advice []AdvicePoint
}

// vclock is the virtual clock handed to the scheduling core. Only the
// event loop advances it, so every Now() inside the core reads the
// simulation's current instant.
type vclock struct{ now time.Time }

func (c *vclock) Now() time.Time { return c.now }

// NewTimer returns a timer that never fires: the simulator never parks on
// runState.sleep, it schedules events instead.
func (c *vclock) NewTimer(time.Duration) cluster.Timer { return deadTimer{} }

type deadTimer struct{}

func (deadTimer) C() <-chan time.Time { return nil }
func (deadTimer) Stop() bool          { return false }

// event is one scheduled action; seq breaks ties so heap order — and
// therefore the whole simulation — is deterministic.
type event struct {
	at  time.Time
	seq int
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// job is one dispatch waiting in a bounded worker's queue.
type job struct {
	slot  int
	lease cluster.Lease
	at    time.Time // dispatch instant; the lease deadline runs from here
	done  bool      // started service, expired, or dropped with the worker
}

// wsim is one simulated worker: its model plus queueing state, indexed by
// the core's worker index.
type wsim struct {
	model Worker
	busy  int
	queue []*job
}

// sim is the running simulation state.
type sim struct {
	clock  *vclock
	start  time.Time
	events eventHeap
	seq    int

	core    *cluster.Core
	cfg     cluster.Config // resolved
	spec    *campaign.Spec
	units   []campaign.Unit
	cache   *campaign.Cache
	fleet   []*wsim // by core worker index
	slotOf  []int   // slot id -> worker index
	idle    []bool  // slot id -> parked waiting for work
	jrng    *rand.Rand
	sc      *Scenario
	res     *Result
	autoIdx int
	runErr  error
}

// Run executes the scenario to completion on virtual time.
func Run(sc Scenario) (*Result, error) {
	if len(sc.Workers) == 0 && (sc.Autoscale == nil || sc.Autoscale.Template == nil) {
		return nil, fmt.Errorf("fleetsim: no workers in scenario")
	}
	if sc.Spec == nil {
		return nil, fmt.Errorf("fleetsim: no spec in scenario")
	}
	if err := sc.Spec.Validate(); err != nil {
		return nil, err
	}
	if sc.Autoscale != nil && sc.Autoscale.Interval <= 0 {
		return nil, fmt.Errorf("fleetsim: autoscale needs a positive interval")
	}
	seen := map[string]bool{}
	for i, w := range sc.Workers {
		name := w.Name
		if name == "" {
			name = fmt.Sprintf("sim-%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleetsim: duplicate worker name %q", name)
		}
		seen[name] = true
	}

	clock := &vclock{now: time.Unix(0, 0).UTC()}
	cfg := sc.Config
	cfg.Clock = clock
	var founders, joiners []Worker
	for i, w := range sc.Workers {
		if w.Name == "" {
			w.Name = fmt.Sprintf("sim-%d", i)
		}
		if w.JoinAt > 0 {
			joiners = append(joiners, w)
		} else {
			founders = append(founders, w)
		}
	}
	cfg.Workers = make([]string, len(founders))
	for i := range founders {
		cfg.Workers[i] = founders[i].Name
	}
	if len(founders) == 0 {
		// Like oracleherd -listen with no -workers: the run starts empty
		// and blocks until members join.
		cfg.Elastic = true
	}

	units := sc.Spec.Units()
	var buf bytes.Buffer
	sink := campaign.NewSink(&buf)
	core, err := cluster.NewCore(cfg, len(units), sc.Done, sink)
	if err != nil {
		return nil, err
	}

	s := &sim{
		clock: clock,
		start: clock.now,
		core:  core,
		cfg:   core.Config(),
		spec:  sc.Spec,
		units: units,
		cache: campaign.NewCache(sc.Spec.Trials+16, 1),
		jrng:  rand.New(rand.NewSource(core.Config().Seed + 0x5eed)),
		sc:    &sc,
		res:   &Result{},
	}
	for i := range founders {
		s.fleet = append(s.fleet, &wsim{model: founders[i]})
	}
	for wi := range s.fleet {
		s.addSlots(wi)
	}
	for _, w := range founders {
		s.scheduleChurn(w)
	}
	for _, w := range joiners {
		m := w
		s.schedule(s.start.Add(m.JoinAt), func() { s.join(m) })
	}
	if sc.Autoscale != nil {
		s.schedule(s.start.Add(sc.Autoscale.Interval), s.sampleAdvisor)
	}

	events := 0
	for !core.Finished() {
		if len(s.events) == 0 {
			return nil, fmt.Errorf("fleetsim: deadlock at %v: no events and %d units unmerged",
				clock.now.Sub(s.start), s.core.Stats().Units)
		}
		if events++; events > maxEvents {
			return nil, fmt.Errorf("fleetsim: exceeded %d events at %v", maxEvents, clock.now.Sub(s.start))
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.at.Before(clock.now) {
			return nil, fmt.Errorf("fleetsim: time went backwards: %v -> %v", clock.now, ev.at)
		}
		clock.now = ev.at
		ev.fn()
		if s.runErr != nil {
			return nil, s.runErr
		}
	}

	s.res.Makespan = clock.now.Sub(s.start)
	s.res.Stats = core.Stats()
	s.res.Artifact = append([]byte(nil), buf.Bytes()...)
	s.res.Events = events
	return s.res, core.Err()
}

func (s *sim) schedule(at time.Time, fn func()) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

func (s *sim) scheduleTry(at time.Time, slot int) {
	s.schedule(at, func() { s.try(slot) })
}

// addSlots gives worker wi its cfg.Slots slot loops and starts them.
func (s *sim) addSlots(wi int) {
	for k := 0; k < s.cfg.Slots; k++ {
		s.slotOf = append(s.slotOf, wi)
		s.idle = append(s.idle, false)
		s.scheduleTry(s.clock.now, len(s.slotOf)-1)
	}
}

// scheduleChurn registers a worker's departure events.
func (s *sim) scheduleChurn(m Worker) {
	if m.LeaveAt > 0 {
		s.schedule(s.start.Add(m.LeaveAt), func() { s.depart(m.Name) })
	}
	if m.SilentFrom > 0 && s.sc.MemberTTL > 0 {
		// The worker's last heartbeat lands just before SilentFrom; the
		// sweeper evicts one TTL later.
		s.schedule(s.start.Add(m.SilentFrom+s.sc.MemberTTL), func() { s.depart(m.Name) })
	}
}

// join registers a mid-campaign worker — the virtual-time analogue of the
// membership table feeding Coordinator.Join.
func (s *sim) join(m Worker) {
	if s.core.Finished() {
		return
	}
	idx, added, err := s.core.AddWorker(m.Name)
	if err != nil {
		s.runErr = fmt.Errorf("fleetsim: joining %s: %w", m.Name, err)
		return
	}
	for len(s.fleet) <= idx {
		s.fleet = append(s.fleet, &wsim{})
	}
	s.fleet[idx] = &wsim{model: m}
	s.res.Joins++
	if added {
		s.addSlots(idx)
	}
	s.scheduleChurn(m)
}

// depart removes a worker — graceful leave and TTL eviction share this
// path, as they do in the coordinator — requeueing its leases immediately.
func (s *sim) depart(name string) {
	if _, ok := s.core.DropWorker(name); !ok {
		return
	}
	s.res.Evictions++
	if _, wi, ok := s.workerIndex(name); ok {
		w := s.fleet[wi]
		// Queued dispatches died with the worker; their leases were just
		// requeued by the eviction, so the jobs must never start service.
		for _, j := range w.queue {
			j.done = true
		}
		w.queue = nil
		w.busy = 0
	}
	s.wakeIdle()
}

// workerIndex finds a live-or-tombstoned worker's most recent core index.
func (s *sim) workerIndex(name string) (*wsim, int, bool) {
	for wi := len(s.fleet) - 1; wi >= 0; wi-- {
		if s.fleet[wi].model.Name == name {
			return s.fleet[wi], wi, true
		}
	}
	return nil, 0, false
}

// sampleAdvisor takes one autoscaling sample and, with a template, grows
// the fleet to match the recommendation.
func (s *sim) sampleAdvisor() {
	if s.core.Finished() {
		return
	}
	a := s.sc.Autoscale
	backlog := s.core.Backlog()
	unitSec := s.core.MeanUnitSeconds()
	live := s.core.LiveWorkers()
	rec := membership.Recommend(backlog, unitSec, a.Target, a.Min, a.Max)
	s.res.Advice = append(s.res.Advice, AdvicePoint{
		At:          s.clock.now.Sub(s.start),
		Backlog:     backlog,
		UnitSeconds: unitSec,
		Recommended: rec,
		Live:        live,
	})
	if a.Template != nil {
		for rec > live {
			m := *a.Template
			m.Name = fmt.Sprintf("auto-%d", s.autoIdx)
			s.autoIdx++
			m.JoinAt = 0
			s.join(m)
			live++
		}
	}
	s.schedule(s.clock.now.Add(a.Interval), s.sampleAdvisor)
}

// wakeIdle reschedules every parked slot; called whenever a dispatch
// outcome may have made new work runnable (a requeue, a fresh hedge
// candidate, or a completion freeing the tail guard).
func (s *sim) wakeIdle() {
	for slot, parked := range s.idle {
		if parked {
			s.idle[slot] = false
			s.scheduleTry(s.clock.now, slot)
		}
	}
}

// try is one slot asking the core for work — the simulator's analogue of
// one slotLoop iteration.
func (s *sim) try(slot int) {
	if s.core.Finished() {
		return
	}
	wi := s.slotOf[slot]
	if s.core.WorkerGone(wi) {
		// Evicted: the slot loop exits, like the HTTP path's cancelled
		// worker context.
		return
	}
	if wait, ok := s.core.Gate(wi); !ok {
		if wait <= 0 {
			wait = failLatency
		}
		s.scheduleTry(s.clock.now.Add(wait), slot)
		return
	}
	l, ok := s.core.Acquire(wi)
	if !ok {
		// Nothing runnable for this worker now. If some in-flight shard
		// becomes hedge-eligible later, poll again at that horizon;
		// otherwise park until an outcome wakes us.
		if at, ok := s.core.HedgeHorizon(); ok && at.After(s.clock.now) {
			s.scheduleTry(at, slot)
			return
		}
		s.idle[slot] = true
		return
	}
	s.dispatch(slot, wi, l)
}

// settleFail schedules one dispatch failure at now+after: the core charges
// it, the worker's server frees (bounded workers), and the slot retries.
func (s *sim) settleFail(slot, wi int, l cluster.Lease, dispatched time.Time, after time.Duration, err error, freeServer bool) {
	at := s.clock.now.Add(after)
	s.schedule(at, func() {
		s.core.Fail(l, err, at.Sub(dispatched))
		if freeServer {
			s.finish(wi)
		}
		s.scheduleTry(at, slot)
		s.wakeIdle()
	})
}

// dispatch routes one leased shard through the worker model: immediate
// refusals first (down, storm), then the bounded-capacity queue, then
// service.
func (s *sim) dispatch(slot, wi int, l cluster.Lease) {
	w := s.fleet[wi]
	m := w.model
	rel := s.clock.now.Sub(s.start)

	for _, win := range m.Down {
		if win.contains(rel) {
			s.settleFail(slot, wi, l, s.clock.now, failLatency, &cluster.DispatchError{
				Err: fmt.Errorf("fleetsim: %v on %s: connection refused (down)", l.Shard, m.Name),
			}, false)
			return
		}
	}
	for _, win := range m.Storm {
		if win.contains(rel) {
			s.settleFail(slot, wi, l, s.clock.now, failLatency, &cluster.DispatchError{
				Status:     503,
				RetryAfter: m.RetryAfter,
				Err:        fmt.Errorf("fleetsim: %v on %s: status 503: shedding load", l.Shard, m.Name),
			}, false)
			return
		}
	}

	if m.Capacity <= 0 {
		s.serve(slot, wi, l, s.clock.now, false)
		return
	}
	if w.busy < m.Capacity {
		w.busy++
		s.serve(slot, wi, l, s.clock.now, true)
		return
	}
	if len(w.queue) >= m.QueueCap {
		// Full house: shed exactly like oracled's bounded queue does.
		s.settleFail(slot, wi, l, s.clock.now, failLatency, &cluster.DispatchError{
			Status:     503,
			RetryAfter: m.RetryAfter,
			Err:        fmt.Errorf("fleetsim: %v on %s: status 503: queue full", l.Shard, m.Name),
		}, false)
		return
	}
	j := &job{slot: slot, lease: l, at: s.clock.now}
	w.queue = append(w.queue, j)
	// The lease keeps running while the dispatch waits in line; if no
	// server frees in time, the coordinator cancels it at the deadline.
	s.schedule(j.at.Add(s.cfg.LeaseTimeout), func() { s.expireQueued(slot, wi, j) })
}

// expireQueued fails a dispatch whose lease ran out while it was still
// waiting for a server.
func (s *sim) expireQueued(slot, wi int, j *job) {
	if j.done {
		return
	}
	j.done = true
	w := s.fleet[wi]
	for i, q := range w.queue {
		if q == j {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			break
		}
	}
	s.core.Fail(j.lease, &cluster.DispatchError{
		Err: fmt.Errorf("fleetsim: %v on %s: lease expired after %v in queue",
			j.lease.Shard, w.model.Name, s.cfg.LeaseTimeout),
	}, s.cfg.LeaseTimeout)
	s.scheduleTry(s.clock.now, slot)
	s.wakeIdle()
}

// finish frees one server on a bounded worker and starts the next queued
// dispatch, if any.
func (s *sim) finish(wi int) {
	w := s.fleet[wi]
	if w.model.Capacity <= 0 {
		return
	}
	if w.busy > 0 {
		w.busy--
	}
	for len(w.queue) > 0 {
		j := w.queue[0]
		w.queue = w.queue[1:]
		if j.done {
			continue
		}
		j.done = true
		w.busy++
		s.serve(j.slot, wi, j.lease, j.at, true)
		return
	}
}

// serve decides the outcome of one shard that reached a server:
// mid-flight crashes, hangs, lease expiry, or completion after the
// modeled service time.
func (s *sim) serve(slot, wi int, l cluster.Lease, dispatched time.Time, bounded bool) {
	w := s.fleet[wi]
	m := w.model
	rel := s.clock.now.Sub(s.start)

	service := m.Overhead + m.UnitTime*time.Duration(l.Shard.Len())
	if m.Jitter > 0 {
		service += time.Duration(s.jrng.Int63n(int64(m.Jitter)))
	}
	leaseLeft := s.cfg.LeaseTimeout - s.clock.now.Sub(dispatched)

	// A hung worker never answers: the dispatch dies at the lease
	// deadline unless a membership eviction requeues it first.
	if m.SilentFrom > 0 && rel+service > m.SilentFrom {
		s.settleFail(slot, wi, l, dispatched, leaseLeft, &cluster.DispatchError{
			Err: fmt.Errorf("fleetsim: %v on %s: lease expired after %v (worker silent)",
				l.Shard, m.Name, s.cfg.LeaseTimeout),
		}, bounded)
		return
	}
	// A crash window opening mid-flight drops the connection at that
	// instant; the shard requeues immediately, lease-expiry style but
	// without waiting out the lease.
	for _, win := range m.Down {
		if win.From > rel && win.From < rel+service {
			s.settleFail(slot, wi, l, dispatched, win.From-rel, &cluster.DispatchError{
				Err: fmt.Errorf("fleetsim: %v on %s: connection reset (crashed mid-flight)", l.Shard, m.Name),
			}, bounded)
			return
		}
	}
	// A dispatch outliving its lease is cancelled by the coordinator at
	// the deadline and counts as a failure, exactly like the HTTP path's
	// context timeout.
	if service >= leaseLeft {
		s.settleFail(slot, wi, l, dispatched, leaseLeft, &cluster.DispatchError{
			Err: fmt.Errorf("fleetsim: %v on %s: lease expired after %v (service time %v)",
				l.Shard, m.Name, s.cfg.LeaseTimeout, service),
		}, bounded)
		return
	}

	batches, err := campaign.RunShard(s.spec, s.units, l.Shard, s.cache)
	if err != nil {
		s.runErr = fmt.Errorf("fleetsim: computing %v: %w", l.Shard, err)
		return
	}
	// Zero the one nondeterministic field: wall_ns measures the host that
	// ran the simulation, which means nothing on virtual time. With it
	// gone, identical scenarios produce byte-identical artifacts.
	for _, recs := range batches {
		for i := range recs {
			recs[i].WallNS = 0
		}
	}
	at := s.clock.now.Add(service)
	s.schedule(at, func() {
		if _, err := s.core.Complete(l, batches, at.Sub(dispatched)); err != nil {
			return // sink error is fatal; the core records it
		}
		if bounded {
			s.finish(wi)
		}
		s.scheduleTry(at, slot)
		s.wakeIdle()
	})
}

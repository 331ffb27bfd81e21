// Package membership lets oracled workers join and leave a running
// oracleherd campaign instead of being pinned in a static -workers list.
//
// A worker self-registers against the coordinator's fleet endpoint
// (POST /v1/fleet/join) carrying its advertised URL, catalog fingerprint
// and build info, then sends periodic heartbeats (POST /v1/fleet/heartbeat)
// with its live load signals: queue depth and the EWMA per-unit service
// time its shard endpoint observes. The coordinator keeps the members in a
// Table with TTL-based eviction — a member whose heartbeats stop is probed
// once over /healthz and, unless the probe answers "draining", evicted.
// Membership deltas feed the cluster package: a join spawns lease slots
// mid-run, an eviction requeues the worker's leases immediately (no
// lease-timeout wait) and retires its scheduling state, and a draining
// member keeps its leases but is handed no new ones.
//
// On top of the same signals rides the autoscaling advisor: Recommend maps
// (unit backlog, mean unit service time, target makespan) to a fleet size,
// exposed via GET /v1/fleet and the oracleherd_fleet_recommended_workers
// gauge for an external provisioner to act on.
//
// The package is transport-light on purpose: the Table is pure state with
// an injectable clock, so fleetsim and tests drive churn on virtual time,
// and the HTTP layer (Server, Agent) is a thin JSON skin over it.
package membership

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a member's lease eligibility.
type Status string

const (
	// StatusActive members accept new leases.
	StatusActive Status = "active"
	// StatusDraining members keep the leases they hold but get no new
	// ones; a draining worker that goes silent past its grace is evicted
	// like any other.
	StatusDraining Status = "draining"
)

// BuildInfo identifies a member's binary, mirroring the oracled /healthz
// build block. Declared here (not imported from internal/service) so the
// coordinator side carries no dependency on the worker implementation.
type BuildInfo struct {
	GoVersion     string `json:"go_version,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	Revision      string `json:"vcs_revision,omitempty"`
	Dirty         bool   `json:"vcs_dirty,omitempty"`
}

// Member is one row of the live fleet table.
type Member struct {
	// ID is the worker's advertised base URL — the same string the cluster
	// package dispatches shards to.
	ID string `json:"id"`
	// Fingerprint is the worker's catalog fingerprint, validated against
	// the coordinator's at join time.
	Fingerprint string    `json:"catalog_fingerprint"`
	Build       BuildInfo `json:"build"`
	// QueueDepth and UnitSeconds are the latest heartbeat's load signals:
	// the worker's bounded-queue depth and its EWMA per-unit service time.
	QueueDepth  int     `json:"queue_depth"`
	UnitSeconds float64 `json:"unit_seconds"`
	// TenantGen is the tenant-policy generation the worker last reported
	// serving; the coordinator compares it against its own to surface
	// fleet-wide config skew.
	TenantGen  uint64    `json:"tenant_generation,omitempty"`
	Status     Status    `json:"status"`
	JoinedAt   time.Time `json:"joined_at"`
	LastSeen   time.Time `json:"last_seen"`
	Heartbeats int64     `json:"heartbeats"`
}

// Heartbeat is the per-beat payload a member reports.
type Heartbeat struct {
	QueueDepth  int     `json:"queue_depth"`
	UnitSeconds float64 `json:"unit_seconds"`
	// TenantGen is the tenant-policy generation the worker is serving.
	TenantGen uint64 `json:"tenant_generation,omitempty"`
	// Draining marks a member shutting down gracefully: it is kept in the
	// table with StatusDraining instead of being handed new leases.
	Draining bool `json:"draining,omitempty"`
}

// EventKind classifies a membership delta.
type EventKind string

const (
	// EventJoin fires when a member registers (including a re-register
	// after eviction).
	EventJoin EventKind = "join"
	// EventLeave fires on a voluntary departure.
	EventLeave EventKind = "leave"
	// EventEvict fires when the sweep removes a silent member.
	EventEvict EventKind = "evict"
	// EventDrain fires when a member transitions active → draining.
	EventDrain EventKind = "drain"
	// EventActivate fires when a member transitions draining → active.
	EventActivate EventKind = "activate"
)

// Event is one membership delta, delivered to Config.OnEvent outside the
// table lock in the order the transitions happened.
type Event struct {
	Kind   EventKind
	Member Member
}

// ProbeResult is the outcome of the optional pre-eviction health probe.
type ProbeResult struct {
	// Reachable reports whether /healthz answered at all.
	Reachable bool
	// Draining reports a reachable worker that answered with a draining
	// status — it is marked draining instead of evicted.
	Draining bool
	// RetryAfter is the worker's drain hint (how long in-flight work may
	// still take); it extends the draining member's grace beyond the TTL.
	RetryAfter time.Duration
}

// ErrUnknownMember rejects a heartbeat from a worker the table does not
// hold — typically one that was evicted while partitioned. The agent
// answers it by re-joining.
var ErrUnknownMember = errors.New("membership: unknown member")

// FingerprintError rejects a join whose catalog fingerprint disagrees with
// the coordinator's; version skew breaks the byte-identical-merge
// contract.
type FingerprintError struct {
	ID   string
	Got  string
	Want string
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("membership: %s catalog fingerprint %s != coordinator %s (version skew breaks the determinism contract; AllowSkew overrides)",
		e.ID, e.Got, e.Want)
}

// Config parameterizes a Table. The zero value works for tests: no
// fingerprint validation, 10s TTL, wall clock.
type Config struct {
	// TTL is how long a member may go without a heartbeat before the sweep
	// considers it silent (default 10s).
	TTL time.Duration
	// Fingerprint is the coordinator's catalog fingerprint; joins carrying
	// a different one are rejected unless AllowSkew. Empty skips the check.
	Fingerprint string
	AllowSkew   bool
	// Now injects the clock (default time.Now). Fleetsim and tests drive
	// the table on virtual time through it.
	Now func() time.Time
	// Probe, when set, runs against a silent member before eviction. A
	// reachable, draining answer demotes the member to StatusDraining and
	// extends its grace instead of evicting; anything else evicts.
	Probe func(id string) ProbeResult
	// OnEvent receives membership deltas, called outside the table lock in
	// transition order. The oracleherd glue points this at
	// cluster.Coordinator.Join/Evict/SetDraining.
	OnEvent func(Event)
	// Logf, when set, receives membership progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Table is the coordinator's live member table: join/heartbeat/leave
// transitions, TTL sweep, and monotonic counters for the fleet metrics.
// All methods are safe for concurrent use; events fire outside the lock.
type Table struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*Member
	// deadline tracks each member's eviction horizon: LastSeen+TTL
	// normally, pushed further by a draining probe's Retry-After grace.
	deadline map[string]time.Time

	joins     int64
	leaves    int64
	evictions int64
}

// NewTable builds an empty member table.
func NewTable(cfg Config) *Table {
	return &Table{
		cfg:      cfg.withDefaults(),
		members:  make(map[string]*Member),
		deadline: make(map[string]time.Time),
	}
}

// JoinRequest is the registration payload.
type JoinRequest struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"catalog_fingerprint"`
	Build       BuildInfo `json:"build"`
	QueueDepth  int       `json:"queue_depth"`
	UnitSeconds float64   `json:"unit_seconds"`
	TenantGen   uint64    `json:"tenant_generation,omitempty"`
	Draining    bool      `json:"draining,omitempty"`
}

// Join registers a member (or refreshes one that is already present — the
// agent re-joins after coordinator restarts and evictions). A fingerprint
// disagreeing with the coordinator's is rejected unless AllowSkew.
func (t *Table) Join(req JoinRequest) (Member, error) {
	if req.ID == "" {
		return Member{}, fmt.Errorf("membership: join with empty id")
	}
	if t.cfg.Fingerprint != "" && req.Fingerprint != t.cfg.Fingerprint && !t.cfg.AllowSkew {
		return Member{}, &FingerprintError{ID: req.ID, Got: req.Fingerprint, Want: t.cfg.Fingerprint}
	}
	now := t.cfg.Now()
	status := StatusActive
	if req.Draining {
		status = StatusDraining
	}
	t.mu.Lock()
	m, known := t.members[req.ID]
	if !known {
		m = &Member{ID: req.ID, JoinedAt: now}
		t.members[req.ID] = m
		t.joins++
	}
	m.Fingerprint = req.Fingerprint
	m.Build = req.Build
	m.QueueDepth = req.QueueDepth
	m.UnitSeconds = req.UnitSeconds
	m.TenantGen = req.TenantGen
	m.Status = status
	m.LastSeen = now
	t.deadline[req.ID] = now.Add(t.cfg.TTL)
	snap := *m
	t.mu.Unlock()
	if !known {
		t.cfg.Logf("membership: %s joined (catalog %s, go %s)", req.ID, req.Fingerprint, req.Build.GoVersion)
		t.emit(Event{Kind: EventJoin, Member: snap})
	}
	return snap, nil
}

// Beat records one heartbeat. An unknown member answers ErrUnknownMember
// so the agent re-joins; a drain flag transition emits EventDrain or
// EventActivate.
func (t *Table) Beat(id string, hb Heartbeat) (Member, error) {
	now := t.cfg.Now()
	t.mu.Lock()
	m, ok := t.members[id]
	if !ok {
		t.mu.Unlock()
		return Member{}, ErrUnknownMember
	}
	was := m.Status
	m.QueueDepth = hb.QueueDepth
	m.UnitSeconds = hb.UnitSeconds
	m.TenantGen = hb.TenantGen
	if hb.Draining {
		m.Status = StatusDraining
	} else {
		m.Status = StatusActive
	}
	m.LastSeen = now
	m.Heartbeats++
	t.deadline[id] = now.Add(t.cfg.TTL)
	snap := *m
	t.mu.Unlock()
	switch {
	case was != StatusDraining && snap.Status == StatusDraining:
		t.cfg.Logf("membership: %s draining", id)
		t.emit(Event{Kind: EventDrain, Member: snap})
	case was == StatusDraining && snap.Status == StatusActive:
		t.cfg.Logf("membership: %s active again", id)
		t.emit(Event{Kind: EventActivate, Member: snap})
	}
	return snap, nil
}

// Leave removes a member voluntarily (clean worker shutdown). It reports
// whether the member was present.
func (t *Table) Leave(id string) bool {
	t.mu.Lock()
	m, ok := t.members[id]
	var snap Member
	if ok {
		snap = *m
		delete(t.members, id)
		delete(t.deadline, id)
		t.leaves++
	}
	t.mu.Unlock()
	if ok {
		t.cfg.Logf("membership: %s left", id)
		t.emit(Event{Kind: EventLeave, Member: snap})
	}
	return ok
}

// Sweep evicts members whose eviction deadline has passed and returns
// them. When Config.Probe is set, each candidate gets one probe first: a
// reachable worker answering "draining" is demoted to StatusDraining and
// granted max(TTL, Retry-After) more grace instead of being evicted — a
// drain is a promise that held leases are still being finished — and a
// reachable, healthy worker (heartbeats lost, service alive) is granted
// one more TTL.
func (t *Table) Sweep() []Member {
	now := t.cfg.Now()
	t.mu.Lock()
	var due []string
	for id, dl := range t.deadline {
		if now.After(dl) {
			due = append(due, id)
		}
	}
	sort.Strings(due) // deterministic sweep order for tests and fleetsim
	t.mu.Unlock()
	if len(due) == 0 {
		return nil
	}

	var evicted []Member
	var events []Event
	for _, id := range due {
		var probe ProbeResult
		if t.cfg.Probe != nil {
			// Probe outside the lock: /healthz round trips must not block
			// joins and heartbeats.
			probe = t.cfg.Probe(id)
		}
		t.mu.Lock()
		m, ok := t.members[id]
		if !ok || now.Before(t.deadline[id]) {
			// Left, already evicted, or heartbeat arrived while probing.
			t.mu.Unlock()
			continue
		}
		switch {
		case probe.Reachable && probe.Draining:
			grace := t.cfg.TTL
			if probe.RetryAfter > grace {
				grace = probe.RetryAfter
			}
			t.deadline[id] = now.Add(grace)
			was := m.Status
			m.Status = StatusDraining
			snap := *m
			t.mu.Unlock()
			t.cfg.Logf("membership: %s silent but draining, %s grace", id, grace)
			if was != StatusDraining {
				events = append(events, Event{Kind: EventDrain, Member: snap})
			}
		case probe.Reachable:
			t.deadline[id] = now.Add(t.cfg.TTL)
			t.mu.Unlock()
			t.cfg.Logf("membership: %s missed heartbeats but answers /healthz, keeping", id)
		default:
			snap := *m
			delete(t.members, id)
			delete(t.deadline, id)
			t.evictions++
			t.mu.Unlock()
			t.cfg.Logf("membership: %s evicted (silent past TTL)", id)
			evicted = append(evicted, snap)
			events = append(events, Event{Kind: EventEvict, Member: snap})
		}
	}
	for _, ev := range events {
		t.emit(ev)
	}
	return evicted
}

// Get returns a member snapshot by ID.
func (t *Table) Get(id string) (Member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[id]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Members snapshots the table, sorted by ID.
func (t *Table) Members() []Member {
	t.mu.Lock()
	out := make([]Member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, *m)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len is the current member count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.members)
}

// Counters reports the monotonic join/leave/eviction totals.
func (t *Table) Counters() (joins, leaves, evictions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.joins, t.leaves, t.evictions
}

// MeanUnitSeconds averages the members' reported per-unit service times
// (0 before any member reports one) — the advisor's fallback rate signal
// when the coordinator's own sizer has no samples yet.
func (t *Table) MeanUnitSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, m := range t.members {
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

func (t *Table) emit(ev Event) {
	if t.cfg.OnEvent != nil {
		t.cfg.OnEvent(ev)
	}
}

package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"oraclesize/internal/metrics"
	"oraclesize/internal/tenant"
)

// Tenancy in oracled sits entirely at admission: instrument resolves the
// request to a tenantState (authentication), spends a rate token, and only
// then calls the handler — so the response-cache fast lane, which lives
// inside the handlers, can never answer an unauthenticated or over-quota
// request. With no registry configured (Config.Tenants == nil) every
// request resolves to the shared anonymous state with no extra work on the
// hot path: no header parsing, no hashing, no token bucket.
//
// The whole control plane — registry, per-tenant limits, generation — lives
// behind one atomic pointer (Server.tenants) so a hot reload is a single
// pointer swap: requests in flight keep the table they resolved against,
// new requests see the new one, and nothing blocks or drops. Counter state
// (metrics, usage ledgers) lives on tenantState objects that are carried
// across reloads by name, so totals never reset when policy changes.
//
// The 429/503 split is deliberate and load-bearing for clients: 429 means
// *this tenant* is over its own quota (rate, queue slots, concurrent
// campaigns) and should back off while others proceed; 503 means the
// *server* is saturated (global queue, global campaign cap) and everyone
// should back off.

// tenantTable is one immutable generation of the tenant control plane.
// Reloads build a fresh table and swap the Server's pointer; the table
// itself is never mutated after publication.
type tenantTable struct {
	// gen is the policy version this table was built from — the store
	// generation, or a local counter for keyfile reloads.
	gen uint64
	// registry answers authentication; nil serves anonymously.
	registry *tenant.Registry
	// states maps registered tenant names to their (reload-stable) states.
	states map[string]*tenantState
}

// tenantLimits is the swappable half of a tenantState: the resolved quota
// limits plus the registry identity behind them. A reload publishes a new
// limits value atomically; requests read whichever value was current when
// they loaded it, so limit changes apply mid-flight without tearing.
type tenantLimits struct {
	// t is the registry identity behind the state; nil for the reserved
	// anonymous/unknown states, which have no key and no quotas. reg is the
	// registry t belongs to — it owns the rate-limit clock, so admission
	// always charges t's bucket against the clock of t's own generation.
	t      *tenant.Tenant
	reg    *tenant.Registry
	weight int
	slots  int
	// maxBody/maxUnits/maxCampaigns are the tenant's caps (0 = inherit the
	// server-wide cap alone).
	maxBody      int64
	maxUnits     int
	maxCampaigns int
	// admin grants the /v1/admin endpoints.
	admin bool
}

// ledgerCounters are one tenant's cumulative usage totals: seeded from the
// durable store at construction, advanced by atomic adds on the request
// path, flushed back as absolute totals. See tenant.Ledger for the fields.
type ledgerCounters struct {
	requests   atomic.Int64
	units      atomic.Int64
	queueNanos atomic.Int64
	bytes      atomic.Int64
}

func (lc *ledgerCounters) totals() tenant.Ledger {
	return tenant.Ledger{
		Requests:   lc.requests.Load(),
		Units:      lc.units.Load(),
		QueueNanos: lc.queueNanos.Load(),
		Bytes:      lc.bytes.Load(),
	}
}

func (lc *ledgerCounters) seed(l tenant.Ledger) {
	lc.requests.Store(l.Requests)
	lc.units.Store(l.Units)
	lc.queueNanos.Store(l.QueueNanos)
	lc.bytes.Store(l.Bytes)
}

// tenantState is the server-side face of one identity: the (atomically
// swappable) quota limits plus this tenant's metric counters and usage
// ledger. One state exists per registered tenant, plus the two reserved
// states "anonymous" (no registry, or open endpoints) and "unknown"
// (failed authentication) — so metric label cardinality is bounded by the
// registry size + 2, never by what clients send. States survive reloads:
// a rebuilt table reuses the existing state for a still-registered name,
// so counters and ledgers accumulate across policy generations.
type tenantState struct {
	name string
	lim  atomic.Pointer[tenantLimits]

	campaigns atomic.Int64 // this tenant's running campaigns
	// codes counts finished requests by HTTP status, same layout as
	// endpointMetrics.codes; throttled/shed break out the two rejection
	// classes for direct alerting.
	codes     metrics.Codes
	throttled atomic.Int64
	shed      atomic.Int64

	ledger ledgerCounters
}

// reservedLimits is the shared no-quota limits value for the anonymous and
// unknown states.
var reservedLimits = &tenantLimits{weight: 1}

func newTenantState(name string) *tenantState {
	ts := &tenantState{name: name}
	ts.lim.Store(reservedLimits)
	return ts
}

func limitsFor(reg *tenant.Registry, t *tenant.Tenant) *tenantLimits {
	return &tenantLimits{
		t:            t,
		reg:          reg,
		weight:       t.Spec.Weight,
		slots:        t.Spec.MaxQueueSlots,
		maxBody:      t.Spec.MaxBodyBytes,
		maxUnits:     t.Spec.MaxCampaignUnits,
		maxCampaigns: t.Spec.MaxCampaigns,
		admin:        t.Spec.Admin,
	}
}

// table is the current tenant control plane. Never nil after New.
func (s *Server) table() *tenantTable { return s.tenants.Load() }

// TenantGeneration is the policy version currently serving — the store
// generation behind the last reload. Heartbeats carry it so fleet-wide
// config skew is observable.
func (s *Server) TenantGeneration() uint64 { return s.table().gen }

// initTenancy builds the initial tenant table from the configured
// registry, seeding ledgers from the durable store when one is attached.
func (s *Server) initTenancy() {
	s.anonymous = newTenantState("anonymous")
	s.unknown = newTenantState("unknown")
	s.flushed = make(map[string]tenant.Ledger)
	var gen uint64
	if st := s.cfg.TenantStore; st != nil {
		gen = st.Generation()
		s.anonymous.ledger.seed(st.Ledger("anonymous"))
		s.unknown.ledger.seed(st.Ledger("unknown"))
		s.flushed["anonymous"] = s.anonymous.ledger.totals()
		s.flushed["unknown"] = s.unknown.ledger.totals()
	}
	s.tenants.Store(s.buildTable(s.cfg.Tenants, gen, nil))
}

// buildTable assembles a tenant table for reg at generation gen, carrying
// tenant states over from old by name so counters and ledgers persist
// across reloads. New names get fresh states seeded from the store.
func (s *Server) buildTable(reg *tenant.Registry, gen uint64, old *tenantTable) *tenantTable {
	tbl := &tenantTable{gen: gen, registry: reg}
	if reg == nil {
		return tbl
	}
	tenants := reg.Tenants()
	tbl.states = make(map[string]*tenantState, len(tenants))
	for _, t := range tenants {
		var ts *tenantState
		if old != nil {
			ts = old.states[t.Spec.Name]
		}
		if ts == nil {
			ts = newTenantState(t.Spec.Name)
			if st := s.cfg.TenantStore; st != nil {
				ts.ledger.seed(st.Ledger(t.Spec.Name))
				s.flushMu.Lock()
				s.flushed[t.Spec.Name] = ts.ledger.totals()
				s.flushMu.Unlock()
			}
		}
		ts.lim.Store(limitsFor(reg, t))
		tbl.states[t.Spec.Name] = ts
	}
	return tbl
}

// SwapTenants atomically replaces the tenant control plane with reg at
// policy generation gen. In-flight requests finish against whichever
// table they resolved; nothing is dropped. Rate-bucket state carries over
// for same-name tenants (clamped to new burst), counter/ledger state
// carries over by name, and scheduler weights converge on the next
// enqueue. A nil reg switches the server to anonymous mode.
func (s *Server) SwapTenants(reg *tenant.Registry, gen uint64) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.table()
	if reg != nil {
		reg.AdoptBuckets(old.registry)
	}
	s.tenants.Store(s.buildTable(reg, gen, old))
	s.metrics.reloads.Add(1)
}

// ReloadFromStore folds in any store mutations appended since the last
// reload (Sync), rebuilds the registry, and swaps it in. The current
// ledger totals are flushed first so a tenant removed by the reload keeps
// its usage history. On any error the running registry stays untouched.
func (s *Server) ReloadFromStore() (gen uint64, tenants int, err error) {
	st := s.cfg.TenantStore
	if st == nil {
		return 0, 0, fmt.Errorf("service: no tenant store attached")
	}
	s.FlushLedgers()
	if _, err := st.Sync(); err != nil {
		return 0, 0, err
	}
	reg, err := st.Registry()
	if err != nil {
		return 0, 0, err
	}
	s.SwapTenants(reg, st.Generation())
	return st.Generation(), len(reg.Tenants()), nil
}

// FlushLedgers persists every tenant's current usage totals to the
// attached store. Totals unchanged since the last flush are skipped, so
// an idle server appends nothing. Safe to call concurrently with serving;
// a no-op without a store.
func (s *Server) FlushLedgers() {
	st := s.cfg.TenantStore
	if st == nil {
		return
	}
	tbl := s.table()
	states := make([]*tenantState, 0, len(tbl.states)+2)
	for _, ts := range tbl.states {
		states = append(states, ts)
	}
	states = append(states, s.anonymous, s.unknown)
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, ts := range states {
		totals := ts.ledger.totals()
		if totals.IsZero() || totals == s.flushed[ts.name] {
			continue
		}
		if err := st.WriteLedger(ts.name, totals); err != nil {
			return // disk trouble; retry whole flush next interval
		}
		s.flushed[ts.name] = totals
	}
}

// ledgerFlusher periodically persists usage totals until Stop.
func (s *Server) ledgerFlusher(interval time.Duration) {
	defer s.workers.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.FlushLedgers()
		}
	}
}

// apiKey extracts the presented key: `Authorization: Bearer <key>` wins,
// then `X-API-Key: <key>`.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return key
		}
	}
	return r.Header.Get("X-API-Key")
}

// errUnauthorized is returned (with the unknown state for attribution) when
// a registry is configured and the request carries no valid key.
var errUnauthorized = &apiError{status: http.StatusUnauthorized, msg: "missing or unrecognized API key"}

// errForbidden rejects a non-admin tenant on an admin endpoint.
var errForbidden = &apiError{status: http.StatusForbidden, msg: "admin endpoint requires an admin tenant"}

// tenantFor resolves the request's identity against the current table.
// Without a registry every request is anonymous. With one, a missing or
// unrecognized key resolves to the reserved unknown state plus a 401 — the
// state still receives the metric attribution, so probing with bogus keys
// is visible without creating a label per bogus key.
func (s *Server) tenantFor(r *http.Request) (*tenantState, error) {
	tbl := s.table()
	if tbl.registry == nil {
		return s.anonymous, nil
	}
	key := apiKey(r)
	if key == "" {
		return s.unknown, errUnauthorized
	}
	t, ok := tbl.registry.Authenticate(key)
	if !ok {
		return s.unknown, errUnauthorized
	}
	if ts := tbl.states[t.Spec.Name]; ts != nil {
		return ts, nil
	}
	return s.unknown, errUnauthorized
}

// throttleError carries a 429 through handler returns: the tenant is over
// its own quota and retryAfter says when to try again.
type throttleError struct {
	retryAfter time.Duration
	msg        string
}

func (e *throttleError) Error() string { return e.msg }

// admit spends one rate token for the tenant, converting refusal into the
// 429 the instrument layer renders. Reserved states have no bucket and
// always admit.
func (s *Server) admit(ts *tenantState) error {
	lim := ts.lim.Load()
	if lim.t == nil {
		return nil
	}
	ok, retry := lim.reg.Allow(lim.t)
	if !ok {
		return &throttleError{retryAfter: retry, msg: "tenant rate limit exceeded"}
	}
	return nil
}

// bodyLimit is the effective request-body cap for the tenant: the server
// cap, tightened by the tenant's own cap when one is set.
func (s *Server) bodyLimit(ts *tenantState) int64 {
	limit := s.cfg.MaxBodyBytes
	if max := ts.lim.Load().maxBody; max > 0 && max < limit {
		limit = max
	}
	return limit
}

// unitLimit is the effective campaign-unit cap for the tenant.
func (s *Server) unitLimit(ts *tenantState) int {
	limit := s.cfg.MaxCampaignUnits
	if max := ts.lim.Load().maxUnits; max > 0 && max < limit {
		limit = max
	}
	return limit
}

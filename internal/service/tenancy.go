package service

import (
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
// request. While the tenant store holds no tenants there is no registry:
// every request resolves to the shared anonymous state with no extra work
// on the hot path: no header parsing, no hashing, no token bucket.
//
// The whole control plane — registry, per-tenant specs, generation — lives
// behind one atomic pointer (Server.tenants) so a hot reload is a single
// pointer swap: requests in flight keep the table they resolved against,
// new requests see the new one, and nothing blocks or drops. Counter state
// (metrics, usage ledgers, rate buckets) lives on tenantState objects that
// are carried across reloads by name, so totals never reset when policy
// changes.
//
// The 429/503 split is deliberate and load-bearing for clients: 429 means
// *this tenant* is over its own quota (rate, queue slots) and should back
// off while others proceed; 503 means the *server* is saturated (global
// queue) and everyone should back off.

// tenantTable is one immutable generation of the tenant control plane.
// Reloads build a fresh table and swap the Server's pointer; the table
// itself is never mutated after publication.
type tenantTable struct {
	// gen is the store generation this table was built from.
	gen uint64
	// registry answers authentication; nil (no tenants) serves anonymously.
	registry *tenant.Registry
	// states maps registered tenant names to their (reload-stable) states.
	states map[string]*tenantState
}

// ledgerCounters are one tenant's cumulative usage totals: seeded from the
// tenant store at construction, advanced by atomic adds on the request
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
// swappable) quota spec plus this tenant's rate bucket, metric counters
// and usage ledger. One state exists per registered tenant, plus the two
// reserved states "anonymous" (no registry, or open endpoints) and
// "unknown" (failed authentication) — so metric label cardinality is
// bounded by the registry size + 2, never by what clients send. States
// survive reloads: a rebuilt table reuses the existing state for a
// still-registered name, so counters, ledgers and spent tokens carry
// across policy generations.
type tenantState struct {
	name string
	// spec holds the tenant's limits (a zero limit is none); a reload
	// stores a new one atomically, so changes apply without tearing.
	spec   atomic.Pointer[tenant.Spec]
	bucket tenant.Bucket

	// codes counts finished requests by HTTP status, same layout as
	// endpointMetrics.codes; throttled/shed break out the two rejection
	// classes for direct alerting.
	codes     metrics.Codes
	throttled atomic.Int64
	shed      atomic.Int64

	ledger ledgerCounters
}

// reservedSpec is the shared no-quota, no-admin spec of the anonymous and
// unknown states.
var reservedSpec = &tenant.Spec{}

// newTenantState returns a state with no quotas whose ledger continues
// the store's totals for name, recorded as already flushed.
func (s *Server) newTenantState(name string) *tenantState {
	ts := &tenantState{name: name}
	ts.spec.Store(reservedSpec)
	ts.ledger.seed(s.store.Ledger(name))
	s.flushMu.Lock()
	s.flushed[name] = ts.ledger.totals()
	s.flushMu.Unlock()
	return ts
}

// table is the current tenant control plane. Never nil after New.
func (s *Server) table() *tenantTable { return s.tenants.Load() }

// TenantGeneration is the policy version currently serving — the store
// generation behind the last reload.
func (s *Server) TenantGeneration() uint64 { return s.table().gen }

// initTenancy builds the initial tenant table from the store, seeding the
// reserved states' ledgers from it. A store with tenants must build a
// registry: failing that, the server refuses to start rather than fall
// back to serving anonymously.
func (s *Server) initTenancy() error {
	s.flushed = make(map[string]tenant.Ledger)
	s.anonymous = s.newTenantState("anonymous")
	s.unknown = s.newTenantState("unknown")
	var reg *tenant.Registry
	gen := s.store.Generation()
	if s.store.Len() > 0 {
		var err error
		if reg, gen, err = s.store.Registry(); err != nil {
			return err
		}
	}
	s.tenants.Store(s.buildTable(reg, gen, nil))
	return nil
}

// buildTable assembles a tenant table for reg at generation gen, carrying
// tenant states over from old by name so counters, ledgers and rate
// buckets persist across reloads. New names get fresh states seeded from
// the store.
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
			ts = s.newTenantState(t.Spec.Name)
		}
		ts.bucket.Refit(t.Spec.RatePerSec, t.Spec.Burst)
		ts.spec.Store(&t.Spec)
		tbl.states[t.Spec.Name] = ts
	}
	return tbl
}

// ReloadFromStore is the one reload path — SIGHUP, the admin endpoint and
// the fleet hook all land here. It flushes the current ledger totals (so
// a tenant removed by the reload keeps its usage history), folds in store
// changes (Sync), rebuilds the registry and atomically swaps the tenant
// table. In-flight requests finish against whichever table they resolved;
// nothing is dropped. reloadMu holds the four steps together, so
// concurrent reloads publish generations in order, each with its own
// policy. On any error the running table stays untouched.
func (s *Server) ReloadFromStore() (gen uint64, tenants int, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.FlushLedgers()
	if _, err := s.store.Sync(); err != nil {
		return 0, 0, err
	}
	reg, gen, err := s.store.Registry()
	if err != nil {
		return 0, 0, err
	}
	s.tenants.Store(s.buildTable(reg, gen, s.table()))
	s.metrics.reloads.Add(1)
	return gen, len(reg.Tenants()), nil
}

// FlushLedgers persists every tenant's current usage totals to the store.
// Totals unchanged since the last flush are skipped, so an idle server
// appends nothing. Safe to call concurrently with serving.
func (s *Server) FlushLedgers() {
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
		if err := s.store.WriteLedger(ts.name, totals); err != nil {
			return // disk trouble; retry whole flush next interval
		}
		s.flushed[ts.name] = totals
	}
}

// ledgerFlushInterval is how often usage ledgers reach the store; a crash
// loses at most this much accrual.
const ledgerFlushInterval = 5 * time.Second

// ledgerFlusher periodically persists usage totals until Stop.
func (s *Server) ledgerFlusher() {
	defer s.workers.Done()
	t := time.NewTicker(ledgerFlushInterval)
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
	t, ok := tbl.registry.Authenticate(key, s.now())
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

// admit spends one rate token from the tenant's bucket, converting
// refusal into the 429 the instrument layer renders. Unlimited tenants and
// the reserved states (rate 0) admit without touching the bucket.
func (s *Server) admit(ts *tenantState) error {
	sp := ts.spec.Load()
	if sp.RatePerSec <= 0 {
		return nil
	}
	ok, retry := ts.bucket.Take(sp.RatePerSec, sp.Burst, s.now())
	if !ok {
		return &throttleError{retryAfter: retry, msg: "tenant rate limit exceeded"}
	}
	return nil
}

// bodyLimit is the effective request-body cap for the tenant: the server
// cap, tightened by the tenant's own cap when one is set.
func (s *Server) bodyLimit(ts *tenantState) int64 {
	limit := int64(maxBodyBytes)
	if max := ts.spec.Load().MaxBodyBytes; max > 0 && max < limit {
		limit = max
	}
	return limit
}

// unitLimit is the effective /v1/shard spec-unit cap for the tenant: the
// server cap, tightened by the tenant's own cap when one is set.
func (s *Server) unitLimit(ts *tenantState) int {
	limit := maxCampaignUnits
	if max := ts.spec.Load().MaxCampaignUnits; max > 0 && max < limit {
		limit = max
	}
	return limit
}

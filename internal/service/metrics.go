package service

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"oraclesize/internal/metrics"
	"oraclesize/internal/sim"
)

// latencyBuckets are the request latency histogram bounds, in seconds.
// They span sub-millisecond cache hits through multi-second shards.
var latencyBuckets = metrics.Bounds{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointMetrics accumulates one endpoint's request counts (by status
// code) and latency histogram. Observing is atomic adds only — no locks,
// no maps.
type endpointMetrics struct {
	codes   metrics.Codes
	latency *metrics.Histogram
}

// observe records one finished request.
func (em *endpointMetrics) observe(code int, d time.Duration) {
	em.codes.Observe(code)
	em.latency.Observe(d)
}

// serverMetrics is the server's metric registry. Every hot-path update —
// the queue gauges, the per-endpoint request tables, the histogram bins —
// is lock-free; the endpoints map is populated at route-construction time
// and read-only afterwards, so the observe path is a plain map read plus
// atomic adds.
type serverMetrics struct {
	queued     atomic.Int64 // jobs admitted and not yet picked up
	dropped    atomic.Int64 // jobs discarded because their deadline lapsed in queue
	executing  atomic.Int64 // jobs currently running on a worker
	inflight   atomic.Int64 // HTTP requests currently being served
	shed       atomic.Int64 // requests answered 503 for backpressure
	throttled  atomic.Int64 // requests answered 429 for per-tenant quota
	shardUnits atomic.Int64 // campaign units executed via POST /v1/shard
	batches    atomic.Int64 // dispatcher wakeups that executed >= 1 job
	dispatched atomic.Int64 // jobs executed across all batches
	respHits   atomic.Int64 // requests served from the response cache
	respMisses atomic.Int64 // cacheable requests that executed
	reloads    atomic.Int64 // tenant control-plane swaps since boot

	endpoints map[string]*endpointMetrics
}

// endpoint registers (or returns) the named endpoint's table. It is called
// only while the route table is being built — never concurrently with
// serving — which is what lets observe run without a lock.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	if em, ok := m.endpoints[name]; ok {
		return em
	}
	em := &endpointMetrics{latency: metrics.NewHistogram(&latencyBuckets)}
	m.endpoints[name] = em
	return em
}

// handleMetrics renders the Prometheus text page: server-wide gauges and
// counters, then the per-endpoint and per-tenant families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	m, p := s.metrics, metrics.NewPage(w)

	p.Gauge("oracled_queue_depth", "Jobs admitted to the work queue and not yet executing.", m.queued.Load())
	p.Gauge("oracled_queue_capacity", "Configured work queue capacity.", int64(s.cfg.QueueDepth))
	p.Gauge("oracled_executing", "Jobs currently running on workers.", m.executing.Load())
	p.Gauge("oracled_inflight_requests", "HTTP requests currently being served.", m.inflight.Load())
	p.Counter("oracled_shed_total", "Requests answered 503 under backpressure.", m.shed.Load())
	p.Counter("oracled_throttled_total", "Requests answered 429 for per-tenant quota.", m.throttled.Load())
	p.Counter("oracled_dropped_jobs_total", "Queued jobs discarded because their deadline lapsed before execution.", m.dropped.Load())
	p.Counter("oracled_shard_units_total", "Campaign units executed through POST /v1/shard.", m.shardUnits.Load())
	p.Counter("oracled_dispatch_batches_total", "Worker wakeups that drained at least one queued job.", m.batches.Load())
	p.Counter("oracled_dispatch_jobs_total", "Jobs executed across all dispatch batches.", m.dispatched.Load())
	p.Counter("oracled_response_cache_hits_total", "Requests served from the deterministic response cache.", m.respHits.Load())
	p.Counter("oracled_response_cache_misses_total", "Cacheable requests that executed because no cached response existed.", m.respMisses.Load())

	ps := sim.ReadPoolStats()
	p.Counter("oracled_engine_pool_runs_total", "Simulations served through the pooled engine (process-wide).", ps.Runs)
	p.Counter("oracled_engine_pool_created_total", "Engines constructed because the pool was empty (process-wide).", ps.Created)
	p.GaugeFloat("oracled_engine_pool_hit_ratio", "Fraction of pooled runs that reused an engine.", ps.HitRatio())

	cs := s.cache.Stats()
	p.Counter("oracled_instance_cache_hits_total", "Instance cache hits.", cs.Hits)
	p.Counter("oracled_instance_cache_misses_total", "Instance cache misses.", cs.Misses)
	p.GaugeFloat("oracled_instance_cache_hit_ratio", "Fraction of instance lookups served from cache.", cs.HitRatio())

	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	p.Family("oracled_requests_total", "counter", "Finished HTTP requests by endpoint and status code.")
	for _, name := range names {
		p.Codes("oracled_requests_total", &m.endpoints[name].codes, "endpoint", name)
	}

	s.writeTenantMetrics(p)

	p.Family("oracled_request_duration_seconds", "histogram", "Request latency by endpoint.")
	for _, name := range names {
		p.Histogram("oracled_request_duration_seconds", m.endpoints[name].latency, "endpoint", name)
	}
}

// tenantStatesSorted collects the current table's tenant states in a
// stable render order: registered tenants by name, then the reserved
// anonymous and unknown states. The set is bounded — at most
// tenant.MaxTenants + 2 states per policy generation — so per-tenant
// series cardinality is bounded no matter what keys clients present
// (every failed authentication lands on the single "unknown" state).
func (s *Server) tenantStatesSorted() []*tenantState {
	tbl := s.table()
	states := make([]*tenantState, 0, len(tbl.states)+2)
	names := make([]string, 0, len(tbl.states))
	for name := range tbl.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		states = append(states, tbl.states[name])
	}
	return append(states, s.anonymous, s.unknown)
}

// writeTenantMetrics renders the per-tenant series. Zero-valued series are
// suppressed (like the per-endpoint status codes) so an idle tenant costs
// no exposition bytes; the queue-depth gauge reports every tenant that has
// ever queued work.
func (s *Server) writeTenantMetrics(p *metrics.Page) {
	states := s.tenantStatesSorted()
	// perTenant writes one family with a sample for every tenant whose
	// value is non-zero.
	perTenant := func(name, typ, help string, value func(*tenantState) int64) {
		p.Family(name, typ, help)
		for _, ts := range states {
			if n := value(ts); n > 0 {
				p.Int(name, n, "tenant", ts.name)
			}
		}
	}

	p.Gauge("oracled_tenant_config_generation", "Policy generation of the live tenant table.", int64(s.TenantGeneration()))
	p.Counter("oracled_tenant_reloads_total", "Tenant control-plane swaps since boot.", s.metrics.reloads.Load())

	p.Family("oracled_tenant_requests_total", "counter", "Finished HTTP requests by tenant and status code.")
	for _, ts := range states {
		p.Codes("oracled_tenant_requests_total", &ts.codes, "tenant", ts.name)
	}
	perTenant("oracled_tenant_throttled_total", "counter", "Requests answered 429 by tenant.",
		func(ts *tenantState) int64 { return ts.throttled.Load() })
	perTenant("oracled_tenant_shed_total", "counter", "Requests answered 503 by tenant.",
		func(ts *tenantState) int64 { return ts.shed.Load() })

	depths := s.sched.Depths()
	names := make([]string, 0, len(depths))
	for name := range depths {
		names = append(names, name)
	}
	sort.Strings(names)
	p.Family("oracled_tenant_queue_depth", "gauge", "Queued jobs by tenant.")
	for _, name := range names {
		p.Int("oracled_tenant_queue_depth", int64(depths[name]), "tenant", name)
	}

	// Usage ledger totals: cumulative across restarts when a tenant store is
	// attached (seeded from it at boot), process-lifetime counters otherwise.
	perTenant("oracled_tenant_usage_requests_total", "counter", "Finished requests charged to the tenant's usage ledger.",
		func(ts *tenantState) int64 { return ts.ledger.requests.Load() })
	perTenant("oracled_tenant_usage_units_total", "counter", "Simulation units executed for the tenant (runs, shard units, campaign units).",
		func(ts *tenantState) int64 { return ts.ledger.units.Load() })
	p.Family("oracled_tenant_usage_queue_seconds_total", "counter", "Seconds the tenant's jobs spent waiting in the work queue.")
	for _, ts := range states {
		if n := ts.ledger.queueNanos.Load(); n > 0 {
			p.Float("oracled_tenant_usage_queue_seconds_total", float64(n)/1e9, "tenant", ts.name)
		}
	}
	perTenant("oracled_tenant_usage_bytes_total", "counter", "Request plus response body bytes moved for the tenant.",
		func(ts *tenantState) int64 { return ts.ledger.bytes.Load() })
}

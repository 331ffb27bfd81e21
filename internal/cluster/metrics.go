package cluster

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/metrics"
)

// shardBuckets are the latency histogram bounds for shard dispatches, in
// seconds — shards batch many units, so they run longer than single
// requests.
var shardBuckets = metrics.Bounds{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// workerMetrics accumulates one worker's dispatch outcomes and latency
// histogram.
type workerMetrics struct {
	ok, failed atomic.Int64
	latency    *metrics.Histogram
}

// coordMetrics is the coordinator's registry: lock-free counters bumped on
// the dispatch path plus a per-worker table. mu guards the table's rows
// coming and going; the rows themselves update atomically.
type coordMetrics struct {
	retries       atomic.Int64
	hedges        atomic.Int64
	reassignments atomic.Int64
	// joins, leaves and evictions count the fleet endpoint's membership
	// churn for oracleherd's fleet metrics.
	joins, leaves, evictions atomic.Int64

	mu       sync.Mutex
	byWorker map[string]*workerMetrics
}

func newMetrics() *coordMetrics {
	return &coordMetrics{byWorker: make(map[string]*workerMetrics)}
}

// observeShard records one finished dispatch against the worker's
// histogram.
func (m *coordMetrics) observeShard(worker string, ok bool, d time.Duration) {
	m.mu.Lock()
	wm := m.byWorker[worker]
	if wm == nil {
		wm = &workerMetrics{latency: metrics.NewHistogram(&shardBuckets)}
		m.byWorker[worker] = wm
	}
	m.mu.Unlock()
	if ok {
		wm.ok.Add(1)
	} else {
		wm.failed.Add(1)
	}
	wm.latency.Observe(d)
}

// retire drops a departed worker's dispatch counters and histogram so the
// per-worker table is bounded by live membership, not by every worker ever
// seen. A rejoining worker starts a fresh row.
func (m *coordMetrics) retire(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.byWorker, worker)
}

// handleMetrics renders the coordinator's Prometheus text page.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	st, m, p := c.core.st, c.core.m, metrics.NewPage(w)

	// live is the current fleet minus tombstones; per-worker gauges render
	// one row per live member, so departed workers age out of the page.
	var live []*worker
	for _, wk := range c.core.fleet.snapshot() {
		if !wk.isGone() {
			live = append(live, wk)
		}
	}

	pending, inflight, done, carved := st.counts()
	sizeMin, sizeMedian, sizeMax := st.sizeSummary()
	p.Gauge("oracleherd_shards_total", "Shards carved so far in the active run (not known in advance under adaptive sizing).", int64(carved))
	p.Gauge("oracleherd_shards_done", "Shards merged so far in the active run.", int64(done))
	p.Gauge("oracleherd_shards_inflight", "Shards currently leased to workers.", int64(inflight))
	p.Gauge("oracleherd_shards_pending", "Shards waiting for a lease.", int64(pending))
	p.Counter("oracleherd_retries_total", "Failed shard dispatches that were requeued.", m.retries.Load())
	p.Counter("oracleherd_hedges_total", "Speculative re-dispatches of straggling shards.", m.hedges.Load())
	p.Counter("oracleherd_reassignments_total", "Requeued shards whose next lease went to a different worker.", m.reassignments.Load())
	p.Counter("oracleherd_dedup_dropped_records_total", "Records dropped by the idempotent merge (hedge losers, reassigned duplicates).", int64(st.sink.Deduped()))
	p.Family("oracleherd_shard_size_units", "gauge", "Carved shard sizes in the active run, by summary statistic.")
	p.Int("oracleherd_shard_size_units", int64(sizeMin), "stat", "min")
	p.Int("oracleherd_shard_size_units", int64(sizeMedian), "stat", "median")
	p.Int("oracleherd_shard_size_units", int64(sizeMax), "stat", "max")
	p.Family("oracleherd_worker_unit_seconds", "gauge", "EWMA of per-unit service time the adaptive sizer holds for each worker (0 before the first sample).")
	for _, wk := range live {
		p.Float("oracleherd_worker_unit_seconds", st.sizer.perUnit(wk.url), "worker", wk.url)
	}

	perWorker := func(name, help string, on func(*worker) bool) {
		p.Family(name, "gauge", help)
		for _, wk := range live {
			v := int64(0)
			if on(wk) {
				v = 1
			}
			p.Int(name, v, "worker", wk.url)
		}
	}
	perWorker("oracleherd_worker_up", "Latest health-probe outcome per worker.",
		func(wk *worker) bool { return wk.health().up })
	perWorker("oracleherd_breaker_open", "Whether the worker's circuit breaker currently refuses dispatches.",
		(*worker).breakerOpen)
	perWorker("oracleherd_worker_draining", "Whether the worker is draining: it keeps held leases but is handed no new ones.",
		(*worker).isDraining)

	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.byWorker))
	for name := range m.byWorker {
		names = append(names, name)
	}
	sort.Strings(names)

	p.Family("oracleherd_worker_shards_total", "counter", "Finished shard dispatches by worker and outcome.")
	for _, name := range names {
		wm := m.byWorker[name]
		p.Int("oracleherd_worker_shards_total", wm.ok.Load(), "worker", name, "outcome", "ok")
		p.Int("oracleherd_worker_shards_total", wm.failed.Load(), "worker", name, "outcome", "error")
	}
	p.Family("oracleherd_shard_duration_seconds", "histogram", "Shard dispatch latency by worker.")
	for _, name := range names {
		p.Histogram("oracleherd_shard_duration_seconds", m.byWorker[name].latency, "worker", name)
	}
}

// Package service implements oracled, the advice-and-simulation daemon: an
// HTTP/JSON front end over this repository's oracle constructions and
// simulation engines. It serves
//
//	POST /v1/advice                generate an instance, run an oracle, report advice
//	POST /v1/run                   one task/oracle/scheduler simulation (oraclesim as an API)
//	POST /v1/shard                 execute a contiguous unit range of a campaign spec
//	POST /v1/admin/tenants/reload  rebuild the tenant table from its store (admin key)
//	GET  /v1/admin/tenants         the live tenant table and usage ledgers (admin key)
//	GET  /healthz                  liveness and load snapshot
//	GET  /metrics                  Prometheus text-format metrics
//
// A whole campaign is driven from outside: oracleherd leases /v1/shard
// ranges to one or more daemons and merges the records into a resumable
// artifact.
//
// The serving path reuses the batch machinery end to end: names resolve and
// runs execute through catalog.Resolve and Run.Execute (the path oraclesim
// and campaign units take) on package sim's pooled engines, and a shared
// campaign.Cache keeps generated graphs across requests and shards. The
// cache holds graphs only; advice is rebuilt for every executed request,
// and repeats of a whole request are answered from the response cache.
//
// Load is explicitly bounded. Simulation requests pass through a bounded
// work queue executed by a fixed worker set; when the queue is full the
// server sheds load with 503 and a Retry-After hint instead of queueing
// without bound. Every queued request carries a deadline — expiry returns
// 504 whether the request is still queued or already executing (an
// executing run's result is then discarded). Request sizes are capped
// (body bytes, n, m, message budget, spec units) so a single request
// cannot occupy a worker indefinitely.
package service

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/tenant"
)

// Config bounds the server. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of simulation executors (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the backlog of admitted-but-not-executing
	// simulation requests (default 64). A full queue sheds load with 503.
	QueueDepth int
	// RequestTimeout is the per-request deadline covering queue wait plus
	// execution (default 30s). Expiry returns 504.
	RequestTimeout time.Duration
	// RetryAfter is the client backoff hint attached to 503 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// MaxNodes caps the requested network size n (default 4096).
	MaxNodes int
	// MaxEdges caps the generated network's edge count m (default 1<<20).
	// Families derive m from n, so the cap is checked after generation.
	MaxEdges int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxMessageBudget caps the per-run message budget regardless of what
	// the request asks for (default 1<<24), so one run cannot hold a
	// worker for an unbounded message count.
	MaxMessageBudget int
	// CacheCapacity bounds the shared instance cache (default 128 entries).
	CacheCapacity int
	// MaxCampaignUnits caps the compiled unit count of a spec sent to
	// POST /v1/shard (default 65536).
	MaxCampaignUnits int
	// MaxShardUnits caps the unit count of one POST /v1/shard request
	// (default 1024), bounding how long a batch holds a queue worker.
	MaxShardUnits int
	// BatchMax caps how many queued requests one worker drains per wakeup
	// (default 16). Under load the queue/channel hand-off and scheduler
	// wakeup are amortized across the batch; a solo request still executes
	// on the first (blocking) receive, so unloaded latency is unchanged.
	// 1 restores strict one-job-per-wakeup dispatch.
	BatchMax int
	// ResponseCacheCapacity bounds the deterministic response cache, which
	// memoizes encoded 200 responses for repeatable /v1/advice and /v1/run
	// requests (queue engine only) and serves repeats without touching the
	// work queue. Default 4096 entries; negative disables the cache.
	ResponseCacheCapacity int
	// TenantStore is the tenant control plane: a durable store
	// (tenant.OpenStore) or a memory store (tenant.OpenKeyfile,
	// tenant.NewMemStore). With tenants in it, requests must authenticate
	// with a registered API key, per-tenant quotas apply at admission, and
	// the work queue drains tenants in weighted-fair order; with none (nil
	// means an empty memory store) the server serves anonymously with no
	// auth or quota work on the request path. Usage ledgers are seeded from
	// it at boot and flushed back to it periodically, and ReloadFromStore
	// rebuilds the registry from its current contents. The Server does not
	// own the store — the caller closes it after Stop.
	TenantStore *tenant.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4096
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxMessageBudget <= 0 {
		c.MaxMessageBudget = 1 << 24
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 128
	}
	if c.MaxCampaignUnits <= 0 {
		c.MaxCampaignUnits = 1 << 16
	}
	if c.MaxShardUnits <= 0 {
		c.MaxShardUnits = 1 << 10
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.ResponseCacheCapacity == 0 {
		c.ResponseCacheCapacity = 4096
	}
	return c
}

// cacheShards partitions the instance and response caches into
// independently locked shards (at most one per cached entry), so
// concurrent requests do not serialize on one mutex.
const cacheShards = 8

// Server is one oracled instance: a handler tree plus the worker set behind
// the bounded queue. Construct with New, serve s.Handler(), and Stop when
// the HTTP listener has drained.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	metrics   *serverMetrics
	cache     *campaign.Cache
	responses *respCache // nil when ResponseCacheCapacity < 0
	units     unitsCache

	// store is the tenant control plane the table is built from.
	store *tenant.Store
	// tenants is the live tenant control plane — registry, per-tenant
	// limits, policy generation — behind one atomic pointer so a hot reload
	// is a lock-free swap; see tenancy.go. anonymous serves registry-less
	// mode and open endpoints, unknown absorbs failed authentications; both
	// are reload-stable like every tenantState.
	tenants   atomic.Pointer[tenantTable]
	anonymous *tenantState
	unknown   *tenantState
	// now is the clock behind key-rotation windows and rate buckets;
	// tests in this package substitute it.
	now func() time.Time
	// reloadMu serializes reloads, never reads.
	reloadMu sync.Mutex
	// flushMu guards flushed, the last ledger totals persisted per tenant —
	// the dedup that keeps an idle server from appending to the store.
	flushMu   sync.Mutex
	flushed   map[string]tenant.Ledger
	flushStop chan struct{}

	// sched is the bounded work queue: per-tenant FIFOs drained by weighted
	// deficit-round-robin. With one active tenant it degrades to the plain
	// batched FIFO of the serve-path fast lane.
	sched *tenant.Scheduler[*job]
	// draining mirrors stopped for lock-free reads: the response-cache fast
	// lane consults it so a stopped server sheds repeats like any other
	// request instead of answering from cache.
	draining atomic.Bool
	// drain is the voluntary pre-shutdown flag (BeginDrain): the server
	// keeps executing but advertises "draining" so an elastic coordinator
	// stops handing it new leases. See fleet.go.
	drain atomic.Bool
	// unitSecBits holds the per-unit shard service-time EWMA as float bits.
	unitSecBits atomic.Uint64
	workers     sync.WaitGroup

	// testHook, when set (by tests in this package), runs in a worker
	// goroutine right before a job executes — the lever overload tests use
	// to hold workers busy deterministically.
	testHook func()
}

// New builds a server and starts its workers. It fails when the tenant
// store holds tenants but does not build a registry: such a server must
// not fall back to serving anonymously.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   &serverMetrics{endpoints: make(map[string]*endpointMetrics)},
		cache:     campaign.NewCache(cfg.CacheCapacity, cacheShards),
		sched:     tenant.NewScheduler[*job](cfg.QueueDepth),
		store:     cfg.TenantStore,
		now:       time.Now,
		flushStop: make(chan struct{}),
	}
	if s.store == nil {
		s.store = tenant.NewMemStore()
	}
	if err := s.initTenancy(); err != nil {
		return nil, err
	}
	if cfg.ResponseCacheCapacity > 0 {
		s.responses = newRespCache(cfg.ResponseCacheCapacity, cacheShards)
	}
	s.mux = s.routes()
	s.workers.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.ledgerFlusher()
	return s, nil
}

// Handler returns the HTTP handler tree. All endpoints are instrumented.
func (s *Server) Handler() http.Handler { return s.mux }

// Stop closes the work queue and joins the workers. Call it only after the
// HTTP listener has stopped delivering requests (http.Server.Shutdown);
// later submissions are shed with 503.
func (s *Server) Stop() {
	s.draining.Store(true)
	s.sched.Close()
	close(s.flushStop)
	s.workers.Wait()
	// Final flush so ledger totals survive the restart byte-exactly.
	s.FlushLedgers()
}

// job is one queued simulation request. The worker publishes exactly one
// result on done (buffered), unless the job's deadline lapsed first — then
// the job is dropped and nobody listens.
type job struct {
	ctx  ctxDone
	work func() (any, error)
	done chan jobResult
	// ts/enq attribute queue wait to the owning tenant's ledger: the worker
	// charges enq→dequeue to ts when it picks the job up.
	ts  *tenantState
	enq time.Time
}

type jobResult struct {
	value any
	err   error
}

// ctxDone is the slice of context.Context the queue needs; keeping it
// narrow makes the worker's drop-on-expiry check explicit.
type ctxDone interface {
	Done() <-chan struct{}
	Err() error
}

// enqueue admits work for the given tenant into the bounded scheduler.
// A full scheduler (or a stopped server) returns errBusy — the caller
// sheds load with 503. A tenant over its own queue-slot quota while global
// capacity remains is throttled with 429 instead.
func (s *Server) enqueue(ts *tenantState, j *job) error {
	sp := ts.spec.Load()
	j.ts, j.enq = ts, time.Now()
	switch err := s.sched.Enqueue(ts.name, sp.Weight, sp.MaxQueueSlots, j); err {
	case nil:
		s.metrics.queued.Add(1)
		return nil
	case tenant.ErrTenantFull:
		return &throttleError{retryAfter: s.cfg.RetryAfter, msg: "tenant queue slots exhausted"}
	default:
		return errBusy
	}
}

var errBusy = fmt.Errorf("service: work queue full")

// worker runs the batched dispatch loop: block for a batch of up to
// BatchMax jobs in weighted-fair order and execute it before touching the
// scheduler again. Under load this amortizes scheduler wakeups across the
// batch; an idle server executes the solo job straight off the blocking
// dequeue, so single-request latency is the same as unbatched dispatch.
func (s *Server) worker() {
	defer s.workers.Done()
	buf := make([]*job, 0, s.cfg.BatchMax)
	for {
		batch := s.sched.DequeueBatch(buf[:0], s.cfg.BatchMax)
		if batch == nil {
			return // closed and drained
		}
		s.metrics.batches.Add(1)
		s.metrics.dispatched.Add(int64(len(batch)))
		for i, j := range batch {
			s.runJob(j)
			batch[i] = nil // the job may be pooled again; drop our reference
		}
		buf = batch // keep any capacity growth for the next round
	}
}

// runJob executes one dequeued job and publishes its result.
func (s *Server) runJob(j *job) {
	s.metrics.queued.Add(-1)
	if j.ts != nil {
		j.ts.ledger.queueNanos.Add(time.Since(j.enq).Nanoseconds())
	}
	if j.ctx.Err() != nil {
		// The handler gave up while the job sat in the queue; executing
		// it would burn a worker on a response nobody reads.
		s.metrics.dropped.Add(1)
		return
	}
	if s.testHook != nil {
		s.testHook()
	}
	s.metrics.executing.Add(1)
	value, err := j.work()
	s.metrics.executing.Add(-1)
	j.done <- jobResult{value: value, err: err}
}

// jobPool recycles job structs (and their buffered done channels) across
// requests. A job is returned to the pool only by the handler that owns it,
// and only after the result hand-off completed — an abandoned job (deadline
// fired first) is left for the GC because the worker may still be about to
// send on its channel.
var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan jobResult, 1)} },
}

// execute queues work for the tenant and waits for its result or the
// request deadline. The done channel is buffered so a worker finishing
// after deadline expiry never blocks.
func (s *Server) execute(ctx ctxDone, ts *tenantState, work func() (any, error)) (any, error) {
	j := jobPool.Get().(*job)
	j.ctx, j.work = ctx, work
	if err := s.enqueue(ts, j); err != nil {
		j.ctx, j.work, j.ts = nil, nil, nil
		jobPool.Put(j)
		return nil, err
	}
	select {
	case r := <-j.done:
		j.ctx, j.work, j.ts = nil, nil, nil
		jobPool.Put(j)
		return r.value, r.err
	case <-ctx.Done():
		// Do NOT pool j: the worker may still execute it and send on done.
		return nil, errDeadline
	}
}

var errDeadline = fmt.Errorf("service: request deadline exceeded")

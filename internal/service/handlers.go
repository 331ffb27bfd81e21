package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"oraclesize/internal/catalog"
	"oraclesize/internal/graph"
	"oraclesize/internal/membership"
	"oraclesize/internal/oracle"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/advice", s.instrument("/v1/advice", s.handleAdvice))
	mux.Handle("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	mux.Handle("POST /v1/shard", s.instrument("/v1/shard", s.handleShard))
	// Admin surface: live tenant-table reload and inspection. The handlers
	// themselves enforce the admin grant (403 for ordinary tenants).
	mux.Handle("POST /v1/admin/tenants/reload", s.instrument("/v1/admin/tenants/reload", s.handleTenantsReload))
	mux.Handle("GET /v1/admin/tenants", s.instrument("/v1/admin/tenants", s.handleTenantsShow))
	// /healthz and /metrics stay open even in multi-tenant mode: liveness
	// probes and scrapers do not carry tenant keys. Neither exposes tenant
	// data beyond the bounded per-tenant counters.
	mux.Handle("GET /healthz", s.instrumentOpen("/healthz", s.handleHealthz))
	mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	return mux
}

// apiError carries an HTTP status through handler returns.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// instrument adapts a handler returning (body, error) to http.Handler. It
// is also the tenancy gate: the request is resolved to a tenant and charged
// one rate token BEFORE the handler runs, so nothing inside a handler —
// including the response-cache fast lane — can serve an unauthenticated or
// over-quota request. Errors map to status codes: apiError as given, errBusy
// to 503 + Retry-After (server saturated), throttleError to 429 +
// Retry-After (tenant over quota), errDeadline to 504, anything else to 500.
func (s *Server) instrument(endpoint string, fn func(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error)) http.Handler {
	return s.instrumented(endpoint, fn, false)
}

// instrumentOpen instruments an endpoint that never authenticates (liveness
// probes); its traffic is attributed to the anonymous tenant state.
func (s *Server) instrumentOpen(endpoint string, fn func(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error)) http.Handler {
	return s.instrumented(endpoint, fn, true)
}

func (s *Server) instrumented(endpoint string, fn func(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error), open bool) http.Handler {
	// The endpoint's metric table is resolved once, here, so the per-request
	// path below is pure atomic adds — no map lookup, no registry lock.
	em := s.metrics.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		var (
			ts  *tenantState
			err error
		)
		if open {
			ts = s.anonymous
		} else {
			ts, err = s.tenantFor(r)
			if err == nil {
				err = s.admit(ts)
			}
		}
		var body any
		if err == nil {
			body, err = fn(w, r, ts)
		}
		status := http.StatusOK
		if err != nil {
			var ae *apiError
			var te *throttleError
			switch {
			case errors.As(err, &ae):
				status = ae.status
			case errors.As(err, &te):
				status = http.StatusTooManyRequests
				w.Header().Set("Retry-After", strconv.FormatInt(retrySeconds(te.retryAfter), 10))
			case errors.Is(err, errBusy):
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", strconv.FormatInt(retrySeconds(s.cfg.RetryAfter), 10))
			case errors.Is(err, errDeadline):
				status = http.StatusGatewayTimeout
			default:
				status = http.StatusInternalServerError
			}
			switch status {
			case http.StatusServiceUnavailable:
				s.metrics.shed.Add(1)
				ts.shed.Add(1)
			case http.StatusTooManyRequests:
				s.metrics.throttled.Add(1)
				ts.throttled.Add(1)
			}
			body = map[string]string{"error": err.Error()}
		}
		n := writeJSON(w, status, body)
		em.observe(status, time.Since(start))
		ts.codes.Observe(status)
		// Usage ledger: every finished request counts — a 429 consumed
		// admission work and response bytes just like a 200.
		ts.ledger.requests.Add(1)
		moved := int64(n)
		if r.ContentLength > 0 {
			moved += r.ContentLength
		}
		ts.ledger.bytes.Add(moved)
	})
}

// retrySeconds rounds a backoff hint up to whole seconds, minimum 1 — the
// Retry-After header granularity.
func retrySeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// reqScratch is the pooled per-request decode state for the hot endpoints:
// the slurped body, a reusable reader, the request structs, and the
// response-cache key buffer. A scratch never outlives its handler call —
// the executed closure captures a value copy of the request, not the
// scratch — so handlers release it with a simple defer.
type reqScratch struct {
	body   []byte
	rdr    bytes.Reader
	advice adviceRequest
	run    runRequest
	key    []byte
}

var scratchPool = sync.Pool{
	New: func() any {
		return &reqScratch{body: make([]byte, 0, 512), key: make([]byte, 0, 128)}
	},
}

// readBody slurps the size-capped request body into scr.body, reusing its
// backing array across requests. The cap is the server-wide limit tightened
// by the tenant's own body quota.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, scr *reqScratch, ts *tenantState) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.bodyLimit(ts))
	scr.body = scr.body[:0]
	for {
		if len(scr.body) == cap(scr.body) {
			scr.body = append(scr.body, 0)[:len(scr.body)]
		}
		n, err := r.Body.Read(scr.body[len(scr.body):cap(scr.body)])
		scr.body = scr.body[:len(scr.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return &apiError{
					status: http.StatusRequestEntityTooLarge,
					msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				}
			}
			return badRequest("decoding request: %v", err)
		}
	}
}

// decode parses the slurped body into dst with the same strictness as
// decodeBody (unknown fields rejected).
func (scr *reqScratch) decode(dst any) error {
	scr.rdr.Reset(scr.body)
	dec := json.NewDecoder(&scr.rdr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// decodeBody parses a size-capped JSON request body into dst. The cold
// endpoint /v1/shard uses it; the hot endpoints go through the pooled
// reqScratch instead.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, ts *tenantState) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.bodyLimit(ts))
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// appendKeyString length-prefixes s into a response-cache key, so
// concatenated free-form fields can never collide across field boundaries.
func appendKeyString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// instanceParams selects a cached graph instance; shared by advice and run
// requests.
type instanceParams struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Source int    `json:"source"`
}

// instance validates the parameters against the server's size caps and
// returns the (cached) graph.
func (s *Server) instance(p instanceParams) (*graph.Graph, error) {
	if p.N < 2 || p.N > s.cfg.MaxNodes {
		return nil, badRequest("n %d out of range [2,%d]", p.N, s.cfg.MaxNodes)
	}
	fam, err := catalog.FamilyByName(p.Family)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	g, err := s.cache.Graph(fam, p.N, p.Seed)
	if err != nil {
		return nil, badRequest("generating %s n=%d: %v", p.Family, p.N, err)
	}
	if g.M() > s.cfg.MaxEdges {
		return nil, badRequest("instance has m=%d edges, cap is %d", g.M(), s.cfg.MaxEdges)
	}
	if p.Source < 0 || p.Source >= g.N() {
		return nil, badRequest("source %d out of range [0,%d)", p.Source, g.N())
	}
	return g, nil
}

// requestContext applies the server's request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// ---- POST /v1/advice ----

type adviceRequest struct {
	instanceParams
	Task string `json:"task"`
	// Scheme selects the oracle by canonical scheme name or alias;
	// empty selects the task's default (the paper's construction).
	Scheme string `json:"scheme,omitempty"`
	// IncludeAdvice adds the per-node advice bit strings to the response.
	IncludeAdvice bool `json:"include_advice,omitempty"`
}

type nodeAdvice struct {
	Node  int    `json:"node"`
	Label int64  `json:"label"`
	Bits  int    `json:"bits"`
	S     string `json:"s"`
}

type adviceResponse struct {
	Family        string       `json:"family"`
	Nodes         int          `json:"nodes"`
	Edges         int          `json:"edges"`
	MaxDegree     int          `json:"max_degree"`
	Task          string       `json:"task"`
	Scheme        string       `json:"scheme"`
	Oracle        string       `json:"oracle"`
	TotalBits     int          `json:"total_bits"`
	MaxNodeBits   int          `json:"max_node_bits"`
	NonEmptyNodes int          `json:"nonempty_nodes"`
	WallNS        int64        `json:"wall_ns"`
	Advice        []nodeAdvice `json:"advice,omitempty"`
}

// adviceCacheKey builds the response-cache key for an advice request: every
// response-affecting request field, plus a distinct endpoint tag.
func adviceCacheKey(b []byte, req *adviceRequest) []byte {
	b = append(b, 'a', 0)
	b = appendKeyString(b, req.Family)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(req.N), 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, req.Seed, 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(req.Source), 10)
	b = append(b, 0)
	b = appendKeyString(b, req.Task)
	b = append(b, 0)
	b = appendKeyString(b, req.Scheme)
	b = append(b, 0)
	if req.IncludeAdvice {
		return append(b, 1)
	}
	return append(b, 0)
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error) {
	scr := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(scr)
	if err := s.readBody(w, r, scr, ts); err != nil {
		return nil, err
	}
	scr.advice = adviceRequest{}
	if err := scr.decode(&scr.advice); err != nil {
		return nil, err
	}
	req := scr.advice
	// Fast lane: oracle advice is a pure function of the request, so a
	// repeat request is answered with the previously encoded bytes without
	// touching the work queue. A key can only hit if the identical request
	// succeeded before, so validation is not bypassed — it already ran; and
	// authentication/rate admission ran in instrument before this handler,
	// so a cached body is never handed to an unauthorized request.
	cacheable := s.responses != nil && !s.draining.Load()
	if cacheable {
		scr.key = adviceCacheKey(scr.key[:0], &req)
		if body := s.responses.get(scr.key); body != nil {
			s.metrics.respHits.Add(1)
			return rawJSON(body), nil
		}
		s.metrics.respMisses.Add(1)
	}
	run, err := catalog.Resolve(req.Task, req.Scheme, "", "", req.Seed)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	g, err := s.instance(req.instanceParams)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	src := graph.NodeID(req.Source)
	body, err := s.execute(ctx, ts, func() (any, error) {
		start := time.Now()
		orc := run.Scheme.NewOracle(src)
		advice, err := orc.Advise(g, src)
		if err != nil {
			return nil, badRequest("advising: %v", err)
		}
		stats := oracle.Stats(advice)
		resp := &adviceResponse{
			Family:        req.Family,
			Nodes:         g.N(),
			Edges:         g.M(),
			MaxDegree:     g.MaxDegree(),
			Task:          req.Task,
			Scheme:        run.Scheme.Name,
			Oracle:        orc.Name(),
			TotalBits:     stats.TotalBits,
			MaxNodeBits:   stats.MaxNodeBits,
			NonEmptyNodes: stats.NonEmptyNodes,
			WallNS:        time.Since(start).Nanoseconds(),
		}
		if req.IncludeAdvice {
			resp.Advice = make([]nodeAdvice, g.N())
			for v := 0; v < g.N(); v++ {
				a := advice[graph.NodeID(v)]
				resp.Advice[v] = nodeAdvice{
					Node:  v,
					Label: g.Label(graph.NodeID(v)),
					Bits:  a.Len(),
					S:     a.String(),
				}
			}
		}
		return resp, nil
	})
	if err != nil || !cacheable {
		return body, err
	}
	enc := encodeResponse(make([]byte, 0, 512), body)
	s.responses.put(scr.key, enc)
	return rawJSON(enc), nil
}

// ---- POST /v1/run ----

type runRequest struct {
	instanceParams
	Task string `json:"task"`
	// Scheme selects the oracle/algorithm pairing (canonical name or
	// alias); empty selects the task's default.
	Scheme string `json:"scheme,omitempty"`
	// Scheduler orders deliveries for the queue engine (default fifo).
	Scheduler string `json:"scheduler,omitempty"`
	// Engine is "queue" (deterministic, default) or "goroutines".
	Engine string `json:"engine,omitempty"`
	// MaxMessages caps sends; 0 selects the catalog budget, and requests
	// are clamped to the server's configured ceiling either way.
	MaxMessages int `json:"max_messages,omitempty"`
}

type runResponse struct {
	Family       string         `json:"family"`
	Nodes        int            `json:"nodes"`
	Edges        int            `json:"edges"`
	Task         string         `json:"task"`
	Scheme       string         `json:"scheme"`
	Oracle       string         `json:"oracle"`
	Algorithm    string         `json:"algorithm"`
	Engine       string         `json:"engine"`
	Scheduler    string         `json:"scheduler,omitempty"`
	AdviceBits   int            `json:"advice_bits"`
	Messages     int            `json:"messages"`
	MessageBits  int            `json:"message_bits"`
	ByKind       map[string]int `json:"by_kind,omitempty"`
	MaxNodeSends int            `json:"max_node_sends"`
	Rounds       int            `json:"rounds"`
	Informed     int            `json:"informed"`
	Complete     bool           `json:"complete"`
	CheckError   string         `json:"check_error,omitempty"`
	WallNS       int64          `json:"wall_ns"`
}

// runCacheKey builds the response-cache key for a run request. Every
// response-affecting field participates; the engine field is included even
// though only queue-engine requests are cacheable, so the "" and "queue"
// spellings get (equally correct) separate entries.
func runCacheKey(b []byte, req *runRequest) []byte {
	b = append(b, 'r', 0)
	b = appendKeyString(b, req.Family)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(req.N), 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, req.Seed, 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(req.Source), 10)
	b = append(b, 0)
	b = appendKeyString(b, req.Task)
	b = append(b, 0)
	b = appendKeyString(b, req.Scheme)
	b = append(b, 0)
	b = appendKeyString(b, req.Scheduler)
	b = append(b, 0)
	b = appendKeyString(b, req.Engine)
	b = append(b, 0)
	return strconv.AppendInt(b, int64(req.MaxMessages), 10)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error) {
	scr := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(scr)
	if err := s.readBody(w, r, scr, ts); err != nil {
		return nil, err
	}
	scr.run = runRequest{}
	if err := scr.decode(&scr.run); err != nil {
		return nil, err
	}
	req := scr.run
	// Fast lane: a queue-engine run is deterministic in the request tuple
	// (schedulers draw from the request seed), so repeats replay the first
	// execution's encoded response. The goroutines engine races real
	// goroutines and is never cached.
	cacheable := s.responses != nil && !s.draining.Load() &&
		(req.Engine == "" || req.Engine == "queue")
	if cacheable {
		scr.key = runCacheKey(scr.key[:0], &req)
		if body := s.responses.get(scr.key); body != nil {
			s.metrics.respHits.Add(1)
			return rawJSON(body), nil
		}
		s.metrics.respMisses.Add(1)
	}
	run, err := catalog.Resolve(req.Task, req.Scheme, req.Engine, req.Scheduler, req.Seed)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	g, err := s.instance(req.instanceParams)
	if err != nil {
		return nil, err
	}
	// The catalog budget, lowered by the request's own cap and clamped to
	// the server's ceiling.
	run.MaxMessages = catalog.MessageBudget(g)
	if req.MaxMessages > 0 && req.MaxMessages < run.MaxMessages {
		run.MaxMessages = req.MaxMessages
	}
	run.MaxMessages = min(run.MaxMessages, s.cfg.MaxMessageBudget)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	src := graph.NodeID(req.Source)
	body, err := s.execute(ctx, ts, func() (any, error) {
		start := time.Now()
		orc := run.Scheme.NewOracle(src)
		advice, err := orc.Advise(g, src)
		if err != nil {
			return nil, badRequest("advising: %v", err)
		}
		res, err := run.Execute(g, src, advice)
		if err != nil {
			return nil, badRequest("run: %v", err)
		}
		informed := 0
		for _, inf := range res.Informed {
			if inf {
				informed++
			}
		}
		resp := &runResponse{
			Family:       req.Family,
			Nodes:        g.N(),
			Edges:        g.M(),
			Task:         req.Task,
			Scheme:       run.Scheme.Name,
			Oracle:       orc.Name(),
			Algorithm:    run.Scheme.Algo.Name(),
			Engine:       run.Engine,
			Scheduler:    run.Scheduler,
			AdviceBits:   advice.SizeBits(),
			Messages:     res.Messages,
			MessageBits:  res.MessageBits,
			MaxNodeSends: res.MaxNodeSends,
			Rounds:       res.Rounds,
			Informed:     informed,
			WallNS:       time.Since(start).Nanoseconds(),
		}
		if err := run.Task.Check(res); err != nil {
			resp.CheckError = err.Error()
		} else {
			resp.Complete = true
		}
		if len(res.ByKind) > 0 {
			resp.ByKind = make(map[string]int, len(res.ByKind))
			for k, c := range res.ByKind {
				resp.ByKind[k.String()] = c
			}
		}
		// One executed simulation is one ledger unit; response-cache hits
		// never reach here, so replayed answers cost the tenant nothing.
		ts.ledger.units.Add(1)
		return resp, nil
	})
	if err != nil || !cacheable {
		return body, err
	}
	enc := encodeResponse(make([]byte, 0, 512), body)
	s.responses.put(scr.key, enc)
	return rawJSON(enc), nil
}

// ---- GET /healthz ----

type healthResponse struct {
	Status        string `json:"status"`
	QueueDepth    int64  `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Executing     int64  `json:"executing"`
	Inflight      int64  `json:"inflight"`
	// Build identifies the worker binary and CatalogFingerprint the name
	// registry it resolves specs against; a cluster coordinator reads both
	// to log which build served each shard and to refuse fleets whose
	// catalogs disagree.
	Build              membership.BuildInfo `json:"build"`
	CatalogFingerprint string               `json:"catalog_fingerprint"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *tenantState) (any, error) {
	status := "ok"
	if s.Draining() {
		// A draining worker stays reachable — the coordinator marks it
		// draining instead of evicting it — and the Retry-After bound says
		// how long its in-flight work may still take.
		status = "draining"
		retry := int64((s.drainRetryAfter() + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
	}
	return &healthResponse{
		Status:             status,
		QueueDepth:         s.metrics.queued.Load(),
		QueueCapacity:      s.cfg.QueueDepth,
		Executing:          s.metrics.executing.Load(),
		Inflight:           s.metrics.inflight.Load(),
		Build:              buildInfo,
		CatalogFingerprint: catalog.Fingerprint(),
	}, nil
}

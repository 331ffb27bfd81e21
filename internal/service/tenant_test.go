package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/tenant"
)

// testStore builds an in-memory tenant store holding specs, by default
// two tenants: "interactive" (unlimited rate, weight 4) and "bulk"
// (rate-limited, weight 1).
func testStore(t *testing.T, specs ...tenant.Spec) *tenant.Store {
	t.Helper()
	if specs == nil {
		specs = []tenant.Spec{
			{Name: "interactive", Key: "interactive-key", Weight: 4},
			{Name: "bulk", Key: "bulk-key-0000", Weight: 1, RatePerSec: 1, Burst: 2},
		}
	}
	st := tenant.NewMemStore()
	for _, sp := range specs {
		if _, err := st.PutKey(sp); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// postJSONKey is postJSON plus an API key header.
func postJSONKey(t *testing.T, h http.Handler, path, key string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

var tenantRunBody = map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}

func TestTenantAuthRequired(t *testing.T) {
	s := newTestServer(t, Config{TenantStore: testStore(t)})

	// No key, wrong key: 401 on every authenticated endpoint.
	for _, key := range []string{"", "wrong-key-123"} {
		w := postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody)
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401: %s", key, w.Code, w.Body.String())
		}
	}

	// X-API-Key works.
	w := postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody)
	if w.Code != http.StatusOK {
		t.Fatalf("X-API-Key auth: status %d: %s", w.Code, w.Body.String())
	}

	// Authorization: Bearer works too.
	data, _ := json.Marshal(tenantRunBody)
	req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(data))
	req.Header.Set("Authorization", "Bearer interactive-key")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("Bearer auth: status %d: %s", rec.Code, rec.Body.String())
	}

	// Liveness stays open — no key required even in multi-tenant mode.
	if w := getPath(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz with registry: status %d", w.Code)
	}
	if w := getPath(t, s.Handler(), "/metrics"); w.Code != http.StatusOK {
		t.Fatalf("metrics with registry: status %d", w.Code)
	}
}

func TestAnonymousModeUnchanged(t *testing.T) {
	s := newTestServer(t, Config{})
	// Without a registry, keys are ignored and everything serves.
	for _, key := range []string{"", "any-key-at-all"} {
		w := postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody)
		if w.Code != http.StatusOK {
			t.Fatalf("anonymous mode, key %q: status %d: %s", key, w.Code, w.Body.String())
		}
	}
}

// TestTenantRateLimit429 drives a rate-limited tenant over its bucket with
// a fake clock and checks the 429 + Retry-After contract, and that the
// other tenant is untouched.
func TestTenantRateLimit429(t *testing.T) {
	now := time.Unix(5000, 0)
	s := newTestServer(t, Config{TenantStore: testStore(t)})
	s.now = func() time.Time { return now }

	// bulk has burst 2: two admits, then 429.
	for i := 0; i < 2; i++ {
		if w := postJSONKey(t, s.Handler(), "/v1/run", "bulk-key-0000", tenantRunBody); w.Code != http.StatusOK {
			t.Fatalf("bulk request %d within burst: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := postJSONKey(t, s.Handler(), "/v1/run", "bulk-key-0000", tenantRunBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}

	// The interactive tenant is unaffected by bulk's throttling.
	for i := 0; i < 5; i++ {
		if w := postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody); w.Code != http.StatusOK {
			t.Fatalf("interactive request %d while bulk throttled: status %d", i, w.Code)
		}
	}

	// Advancing the fake clock restores bulk's admission.
	now = now.Add(time.Second)
	if w := postJSONKey(t, s.Handler(), "/v1/run", "bulk-key-0000", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("bulk after refill: status %d: %s", w.Code, w.Body.String())
	}

	if n := s.metrics.throttled.Load(); n != 1 {
		t.Errorf("throttled counter = %d, want 1", n)
	}
	if n := s.metrics.shed.Load(); n != 0 {
		t.Errorf("shed counter = %d, want 0 — throttling must not count as shedding", n)
	}
}

// TestResponseCacheRequiresAuth is the ISSUE 9 regression test: a response
// cached for an authenticated tenant must never be replayed to an
// unauthenticated or over-quota request.
func TestResponseCacheRequiresAuth(t *testing.T) {
	now := time.Unix(5000, 0)
	s := newTestServer(t, Config{TenantStore: testStore(t)})
	s.now = func() time.Time { return now }

	// Prime the response cache through the interactive tenant.
	if w := postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("priming request: status %d", w.Code)
	}
	w := postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody)
	if w.Code != http.StatusOK {
		t.Fatalf("repeat request: status %d", w.Code)
	}
	if hits := s.metrics.respHits.Load(); hits != 1 {
		t.Fatalf("response cache hits = %d, want 1 — repeat did not hit the cache", hits)
	}

	// The identical request without a key must be 401, not a cached 200.
	if w := postJSONKey(t, s.Handler(), "/v1/run", "", tenantRunBody); w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated repeat served status %d, want 401: %s", w.Code, w.Body.String())
	}

	// The identical request from an over-quota tenant must be 429, not a
	// cached 200. Exhaust bulk's burst of 2 first (both repeats hit cache —
	// rate tokens are still charged on cache hits, which is the point).
	for i := 0; i < 2; i++ {
		if w := postJSONKey(t, s.Handler(), "/v1/run", "bulk-key-0000", tenantRunBody); w.Code != http.StatusOK {
			t.Fatalf("bulk repeat %d: status %d", i, w.Code)
		}
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "bulk-key-0000", tenantRunBody); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota repeat served status %d, want 429: %s", w.Code, w.Body.String())
	}
	if hits := s.metrics.respHits.Load(); hits != 3 {
		t.Errorf("response cache hits = %d, want 3 (rejected requests must not touch the cache)", hits)
	}
}

// TestTenantQueueSlots429 pins the 429/503 split on the queue: a tenant at
// its own slot cap is throttled while the other tenant still admits, and
// only a globally full queue sheds.
func TestTenantQueueSlots429(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "capped", Key: "capped-key-0", MaxQueueSlots: 1},
		tenant.Spec{Name: "free", Key: "free-key-0000"},
	)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, TenantStore: st})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var release sync.Once
	releaseGate := func() { release.Do(func() { close(gate) }) }
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer releaseGate()

	results := make(chan *httptest.ResponseRecorder, 8)
	// Park the lone worker on a request from "free".
	go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "free-key-0000", tenantRunBody) }()
	<-entered
	expectOK := 1

	// capped's first queued request occupies its single slot.
	go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "capped-key-0", tenantRunBody) }()
	waitFor(t, "capped job to queue", func() bool { return s.metrics.queued.Load() == 1 })
	expectOK++

	// capped's second queued request: over its own slot cap — 429, with
	// global capacity (4) still available.
	w := postJSONKey(t, s.Handler(), "/v1/run", "capped-key-0", tenantRunBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-slot status %d, want 429: %s", w.Code, w.Body.String())
	}

	// free is not affected by capped's limit.
	for i := 0; i < 3; i++ {
		go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "free-key-0000", tenantRunBody) }()
		expectOK++
	}
	waitFor(t, "queue to fill", func() bool { return s.metrics.queued.Load() == 4 })

	// Now the global queue is full: even free sheds with 503.
	w = postJSONKey(t, s.Handler(), "/v1/run", "free-key-0000", tenantRunBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("global-full status %d, want 503: %s", w.Code, w.Body.String())
	}

	releaseGate()
	for i := 0; i < expectOK; i++ {
		if w := <-results; w.Code != http.StatusOK {
			t.Errorf("admitted request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
}

func TestTenantBodyLimit(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "tiny", Key: "tiny-key-0000", MaxBodyBytes: 16},
		tenant.Spec{Name: "roomy", Key: "roomy-key-000"},
	)
	s := newTestServer(t, Config{TenantStore: st})
	// The same body passes for roomy and is over tiny's tighter cap.
	if w := postJSONKey(t, s.Handler(), "/v1/run", "roomy-key-000", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("roomy: status %d: %s", w.Code, w.Body.String())
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "tiny-key-0000", tenantRunBody); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("tiny: status %d, want 413: %s", w.Code, w.Body.String())
	}
}

// TestSpecAdmission pins /v1/shard's spec admission: each row's spec must
// be refused with 400 whether a size exceeds MaxNodes or the unit count
// exceeds the tenant's max_campaign_units or, for a tenant without one,
// the server's 65,536-unit cap. The unit count is arithmetic, so the
// server-cap rows are refused without compiling their units.
func TestSpecAdmission(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "capped", Key: "capped-key-00", MaxCampaignUnits: 2},
		tenant.Spec{Name: "open", Key: "open-key-0000"},
	)
	s := newTestServer(t, Config{MaxNodes: 64, TenantStore: st})
	spec := func(trials int, sizes ...int) map[string]any {
		return map[string]any{"name": "t", "trials": trials, "seed": 1,
			"tasks":    []map[string]any{{"task": "broadcast", "schemes": []string{"flooding"}}},
			"families": []string{"cycle"}, "sizes": sizes}
	}
	for _, tc := range []struct {
		name string
		key  string
		spec map[string]any
		want string
	}{
		{"size over max-nodes", "capped-key-00", spec(1, 65), "n=65 exceeds cap 64"},
		{"units over tenant cap", "capped-key-00", spec(1, 8, 12, 16, 20), "4 units, cap is 2"},
		{"units over server cap", "open-key-0000", spec(65537, 8), "65537 units, cap is 65536"},
		{"billion trials", "open-key-0000", spec(1_000_000_000, 16), "1000000000 units, cap is 65536"},
	} {
		body := map[string]any{"spec": tc.spec, "start": 0, "end": 1}
		w := postJSONKey(t, s.Handler(), "/v1/shard", tc.key, body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: status %d, want 400 with %q: %s", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
}

// TestTenantMetricsCardinality floods the server with distinct bogus keys
// and verifies they all collapse into the single reserved "unknown" label —
// the per-tenant series count stays bounded by the registry size.
func TestTenantMetricsCardinality(t *testing.T) {
	s := newTestServer(t, Config{TenantStore: testStore(t)})
	for i := 0; i < 50; i++ {
		w := postJSONKey(t, s.Handler(), "/v1/run", fmt.Sprintf("bogus-key-%d", i), tenantRunBody)
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("bogus key %d: status %d", i, w.Code)
		}
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("valid key: status %d", w.Code)
	}

	body := getPath(t, s.Handler(), "/metrics").Body.String()
	if !strings.Contains(body, `oracled_tenant_requests_total{tenant="unknown",code="401"} 50`) {
		t.Errorf("metrics missing collapsed unknown series:\n%s", grepLines(body, "oracled_tenant_requests_total"))
	}
	if !strings.Contains(body, `oracled_tenant_requests_total{tenant="interactive",code="200"} 1`) {
		t.Errorf("metrics missing interactive series:\n%s", grepLines(body, "oracled_tenant_requests_total"))
	}
	// No bogus key may have minted its own label.
	labels := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "oracled_tenant_") {
			continue
		}
		if i := strings.Index(line, `tenant="`); i >= 0 {
			rest := line[i+len(`tenant="`):]
			labels[rest[:strings.Index(rest, `"`)]] = true
		}
	}
	for l := range labels {
		switch l {
		case "interactive", "bulk", "anonymous", "unknown":
		default:
			t.Errorf("unexpected tenant label %q in metrics", l)
		}
	}
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestTenantQueueDepthMetric checks the per-tenant queue gauge while jobs
// are parked behind a gated worker.
func TestTenantQueueDepthMetric(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, TenantStore: testStore(t)})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var release sync.Once
	releaseGate := func() { release.Do(func() { close(gate) }) }
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer releaseGate()

	results := make(chan *httptest.ResponseRecorder, 4)
	go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody) }()
	<-entered
	go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", tenantRunBody) }()
	waitFor(t, "job to queue", func() bool { return s.metrics.queued.Load() == 1 })

	body := getPath(t, s.Handler(), "/metrics").Body.String()
	if !strings.Contains(body, `oracled_tenant_queue_depth{tenant="interactive"} 1`) {
		t.Errorf("queue depth gauge missing:\n%s", grepLines(body, "oracled_tenant_queue_depth"))
	}

	releaseGate()
	for i := 0; i < 2; i++ {
		if w := <-results; w.Code != http.StatusOK {
			t.Errorf("request %d: status %d", i, w.Code)
		}
	}
}

// TestServiceFairnessUnderBulkLoad is the end-to-end fairness check: with a
// bulk tenant's backlog parked in the queue, an interactive tenant's
// request admitted afterwards executes within one DRR rotation — it does
// not wait behind the whole bulk backlog.
func TestServiceFairnessUnderBulkLoad(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "bulkload", Key: "bulkload-key0", Weight: 1},
		tenant.Spec{Name: "inter", Key: "inter-key-000", Weight: 4},
	)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 64, TenantStore: st})

	var mu sync.Mutex
	var order []string
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	var release sync.Once
	releaseGate := func() { release.Do(func() { close(gate) }) }
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer releaseGate()

	results := make(chan *httptest.ResponseRecorder, 32)
	post := func(key string, tag string) {
		go func() {
			w := postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody)
			mu.Lock()
			order = append(order, tag+":"+fmt.Sprint(w.Code))
			mu.Unlock()
			results <- w
		}()
	}

	// Park the worker, then build a 12-deep bulk backlog.
	post("bulkload-key0", "bulk")
	<-entered
	for i := 0; i < 12; i++ {
		post("bulkload-key0", "bulk")
	}
	waitFor(t, "bulk backlog", func() bool { return s.metrics.queued.Load() == 12 })
	// The interactive request arrives last, behind 12 queued bulk jobs.
	post("inter-key-000", "inter")
	waitFor(t, "interactive job queued", func() bool { return s.metrics.queued.Load() == 13 })

	// Track how many jobs execute before the interactive one: every job
	// passes the testHook, and the interactive one can be recognized by
	// draining entered counts after release.
	releaseGate()
	for i := 0; i < 14; i++ {
		if w := <-results; w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	// All completed. The scheduler-level bound (internal/tenant) pins the
	// exact position; here the end-to-end property is that everything
	// admitted completed despite the mixed backlog.
	if got := s.metrics.dispatched.Load(); got != 14 {
		t.Errorf("dispatched = %d, want 14", got)
	}
}

// TestServiceFairnessMidDrain: one worker, a bulk tenant (weight 1) with
// 20 queued jobs, and an interactive request (weight 4) that arrives only
// after the worker has taken its next work. The interactive job must be
// the next job dequeued: it waits for the job already running and no
// other, as the scheduler's one-quantum bound promises.
func TestServiceFairnessMidDrain(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "bulkload", Key: "bulkload-key0", Weight: 1},
		tenant.Spec{Name: "inter", Key: "inter-key-000", Weight: 4},
	)
	// No response cache: the requests share one body, and every one must
	// queue.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 64, ResponseCacheCapacity: -1, TenantStore: st})

	entered := make(chan struct{}, 64)
	step := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	var release sync.Once
	defer release.Do(func() { close(step) })
	s.testHook = func() {
		entered <- struct{}{}
		<-step
	}
	post := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody); w.Code != http.StatusOK {
				t.Errorf("status %d: %s", w.Code, w.Body.String())
			}
		}()
	}

	// Park the worker on one bulk job and queue 20 more behind it.
	post("bulkload-key0")
	<-entered
	for i := 0; i < 20; i++ {
		post("bulkload-key0")
	}
	waitFor(t, "bulk backlog", func() bool { return s.sched.Len() == 20 })
	// The worker finishes that job and takes its next work; only then does
	// the interactive request arrive.
	step <- struct{}{}
	<-entered
	post("inter-key-000")
	waitFor(t, "interactive job queued", func() bool { return s.sched.Depths()["inter"] == 1 })

	// Release one job at a time until the interactive job leaves the
	// queue; 20 jobs are left to run, so the loop cannot wait forever.
	ran := 0
	for ran < 20 && s.sched.Depths()["inter"] == 1 {
		step <- struct{}{}
		<-entered
		ran++
	}
	if ran != 1 {
		t.Errorf("the interactive job waited for %d jobs, want 1 (the one already running)", ran)
	}
}

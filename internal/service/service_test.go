package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
)

// newTestServer builds a server with test-friendly bounds and registers
// cleanup. Callers that hold the testHook gate must release it before the
// test ends or Stop will hang.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := mustNew(t, cfg)
	t.Cleanup(s.Stop)
	return s
}

// mustNew is New for configurations that must build.
func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdviceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/advice", map[string]any{
		"family": "random-sparse", "n": 32, "seed": 3, "task": "broadcast",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[adviceResponse](t, w)
	if resp.Nodes != 32 || resp.TotalBits <= 0 {
		t.Errorf("nodes=%d total_bits=%d", resp.Nodes, resp.TotalBits)
	}
	if resp.Scheme != "light-tree" {
		t.Errorf("default broadcast scheme = %q, want light-tree", resp.Scheme)
	}

	// include_advice returns one entry per node.
	w = postJSON(t, s.Handler(), "/v1/advice", map[string]any{
		"family": "random-sparse", "n": 32, "seed": 3, "task": "wakeup", "include_advice": true,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp := decode[adviceResponse](t, w); len(resp.Advice) != 32 {
		t.Errorf("advice entries = %d, want 32", len(resp.Advice))
	}
}

func TestRunEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []map[string]any{
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "wakeup"},
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "broadcast", "scheme": "flooding"},
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "broadcast", "scheduler": "random"},
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "gossip"},
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "election"},
		{"family": "random-sparse", "n": 48, "seed": 1, "task": "wakeup", "engine": "goroutines"},
		{"family": "cycle", "n": 48, "seed": 1, "task": "broadcast", "scheme": "paper"},
	} {
		w := postJSON(t, s.Handler(), "/v1/run", tc)
		if w.Code != http.StatusOK {
			t.Fatalf("%v: status %d: %s", tc, w.Code, w.Body.String())
		}
		resp := decode[runResponse](t, w)
		if !resp.Complete {
			t.Errorf("%v: incomplete: %s", tc, resp.CheckError)
		}
		if resp.Messages <= 0 || resp.AdviceBits < 0 {
			t.Errorf("%v: messages=%d advice_bits=%d", tc, resp.Messages, resp.AdviceBits)
		}
	}
}

// TestRunMatchesCampaignRecord checks that /v1/run and campaign units
// share one run path: for every registered task × scheme on two families,
// the /v1/run response for a unit's instance (seed = its InstanceSeed,
// source 0) agrees with the unit's record on advice bits, messages,
// message bits, rounds and completion.
func TestRunMatchesCampaignRecord(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := &campaign.Spec{Name: "agree", Seed: 5, Trials: 1,
		Families: []string{"random-sparse", "random-dense"}, Sizes: []int{24}}
	schemes := 0
	for _, name := range catalog.TaskNames() {
		spec.Tasks = append(spec.Tasks, campaign.TaskSpec{Task: name}) // every registered scheme
		task, err := catalog.TaskByName(name)
		if err != nil {
			t.Fatal(err)
		}
		schemes += len(task.Schemes)
	}
	units := spec.Units()
	if len(units) != 2*schemes {
		t.Fatalf("spec compiles to %d units, want %d (two families × %d schemes)", len(units), 2*schemes, schemes)
	}
	batches, err := campaign.RunShard(spec, units, campaign.Shard{End: len(units)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		rec := batches[i][0]
		w := postJSON(t, s.Handler(), "/v1/run", map[string]any{
			"family": u.Family, "n": u.N, "seed": u.InstanceSeed, "task": u.Task, "scheme": u.Scheme,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u.Key(), w.Code, w.Body.String())
		}
		resp := decode[runResponse](t, w)
		got := [5]any{resp.AdviceBits, resp.Messages, resp.MessageBits, resp.Rounds, resp.Complete}
		want := [5]any{rec.AdviceBits, rec.Messages, rec.MessageBits, rec.Rounds, rec.Complete}
		if got != want {
			t.Errorf("%s: /v1/run (advice_bits, messages, message_bits, rounds, complete) = %v, record %v",
				u.Key(), got, want)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxNodes: 64})
	for name, body := range map[string]map[string]any{
		"unknown family":    {"family": "nope", "n": 16, "task": "wakeup"},
		"unknown task":      {"family": "random-sparse", "n": 16, "task": "nope"},
		"unknown scheme":    {"family": "random-sparse", "n": 16, "task": "wakeup", "scheme": "nope"},
		"unknown scheduler": {"family": "random-sparse", "n": 16, "task": "wakeup", "scheduler": "nope"},
		"unknown engine":    {"family": "random-sparse", "n": 16, "task": "wakeup", "engine": "nope"},
		"n too large":       {"family": "random-sparse", "n": 65, "task": "wakeup"},
		"n too small":       {"family": "random-sparse", "n": 1, "task": "wakeup"},
		"bad source":        {"family": "random-sparse", "n": 16, "source": 99, "task": "wakeup"},
		"election needs queue": {
			"family": "random-sparse", "n": 16, "task": "election", "engine": "goroutines"},
	} {
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body.String())
		}
	}
	// Unknown fields are rejected, not ignored.
	if w := postJSON(t, s.Handler(), "/v1/run", map[string]any{
		"family": "random-sparse", "n": 16, "task": "wakeup", "typo_field": 1,
	}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: status %d", w.Code)
	}
}

// TestOverloadShedsWith503 drives the queue to capacity and verifies the
// defining backpressure behavior: excess load is answered immediately with
// 503 and a Retry-After hint, never queued without bound.
func TestOverloadShedsWith503(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
	})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var release sync.Once
	releaseGate := func() { release.Do(func() { close(gate) }) }
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer releaseGate()

	body := map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}
	results := make(chan *httptest.ResponseRecorder, 2)
	// First request: picked up by the lone worker, parked in the hook.
	go func() { results <- postJSON(t, s.Handler(), "/v1/run", body) }()
	<-entered
	// Second request: sits in the queue (depth 1, now full).
	go func() { results <- postJSON(t, s.Handler(), "/v1/run", body) }()
	waitFor(t, "queue to fill", func() bool { return s.metrics.queued.Load() == 1 })

	// Third request: the queue is full — shed.
	w := postJSON(t, s.Handler(), "/v1/run", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}

	// Release the workers; the two admitted requests must both succeed.
	releaseGate()
	for i := 0; i < 2; i++ {
		if w := <-results; w.Code != http.StatusOK {
			t.Errorf("admitted request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if shed := s.metrics.shed.Load(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
}

// TestDeadlineReturns504 verifies both expiry paths: a request whose
// deadline lapses returns 504, and a job that expires while still queued
// is dropped by the worker rather than executed.
func TestDeadlineReturns504(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond,
	})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}

	body := map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSON(t, s.Handler(), "/v1/run", body) }()
	<-entered

	// With the worker parked, this request expires in the queue.
	if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504: %s", w.Code, w.Body.String())
	}
	// The first request expires too — it was "executing" past its deadline.
	if w := <-first; w.Code != http.StatusGatewayTimeout {
		t.Fatalf("executing request: status %d, want 504: %s", w.Code, w.Body.String())
	}

	close(gate)
	// The worker resumes, finishes the abandoned first job, then discards
	// the expired queued job without running it.
	waitFor(t, "expired job drop", func() bool { return s.metrics.dropped.Load() == 1 })
}

// TestStopDrainsQueuedWork verifies graceful shutdown: jobs admitted
// before Stop all produce responses, and submissions after Stop shed.
func TestStopDrainsQueuedWork(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 8})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}

	body := map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}
	const admitted = 4
	var wg sync.WaitGroup
	results := make(chan *httptest.ResponseRecorder, admitted)
	wg.Add(admitted)
	for i := 0; i < admitted; i++ {
		go func() {
			defer wg.Done()
			results <- postJSON(t, s.Handler(), "/v1/run", body)
		}()
	}
	<-entered // one executing (parked in hook), rest queued
	waitFor(t, "queue backlog", func() bool { return s.metrics.queued.Load() == admitted-1 })

	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	close(gate) // let the worker run the backlog down

	wg.Wait()
	<-stopped
	close(results)
	for w := range results {
		if w.Code != http.StatusOK {
			t.Errorf("admitted request dropped during drain: status %d: %s", w.Code, w.Body.String())
		}
	}
	// Past Stop, the server sheds instead of queuing into a dead pool.
	if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-Stop request: status %d, want 503", w.Code)
	}
}

// TestCampaignConcurrencyCap pins the server-wide campaign unit cap on
// /v1/shard in anonymous mode, where no tenant policy narrows it.
func TestCampaignConcurrencyCap(t *testing.T) {
	s := newTestServer(t, Config{MaxCampaignUnits: 4})
	shard := func(trials int, sizes ...int) map[string]any {
		return map[string]any{"start": 0, "end": 1, "spec": map[string]any{
			"name": "cap", "seed": 1, "trials": trials,
			"families": []string{"random-sparse"}, "sizes": sizes,
			"tasks": []map[string]any{{"task": "wakeup", "schemes": []string{"tree"}}},
		}}
	}
	// A spec over the unit cap is rejected outright.
	if w := postJSON(t, s.Handler(), "/v1/shard", shard(5, 16)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "5 units, cap is 4") {
		t.Errorf("oversized spec: status %d, want 400: %s", w.Code, w.Body.String())
	}
	// A tiny body requesting an astronomical unit count is rejected by
	// arithmetic alone — compiling it first would allocate billions of
	// units before the cap check.
	if w := postJSON(t, s.Handler(), "/v1/shard", shard(1_000_000_000, 16)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "1000000000 units, cap is 4") {
		t.Errorf("huge spec: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestOversizedBodyReturns413 distinguishes "too big" from "malformed":
// a body over MaxBodyBytes answers 413, not 400.
func TestOversizedBodyReturns413(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	body := map[string]any{
		"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup",
		"scheme": strings.Repeat("x", 256),
	}
	if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413: %s", w.Code, w.Body.String())
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	// Generate some traffic first so counters are non-trivial.
	postJSON(t, s.Handler(), "/v1/run", map[string]any{
		"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup",
	})

	w := getPath(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	if h := decode[healthResponse](t, w); h.Status != "ok" {
		t.Errorf("healthz status = %q", h.Status)
	}

	w = getPath(t, s.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	text := w.Body.String()
	for _, metric := range []string{
		"oracled_queue_depth",
		"oracled_queue_capacity",
		"oracled_inflight_requests",
		"oracled_engine_pool_runs_total",
		"oracled_engine_pool_hit_ratio",
		"oracled_instance_cache_hits_total",
		"oracled_instance_cache_hit_ratio",
		`oracled_requests_total{endpoint="/v1/run",code="200"} 1`,
		`oracled_request_duration_seconds_count{endpoint="/v1/run"} 1`,
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}

// TestSteadyStateRunAllocations is the service-level allocation budget:
// once the first request has warmed the graph and response caches,
// serving /v1/run must add only bounded per-request overhead (JSON,
// context, job plumbing) on top of the simulation engine's own per-run
// budget — no per-request graph builds or engine allocations.
func TestSteadyStateRunAllocations(t *testing.T) {
	const n = 256
	s := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(map[string]any{
		"family": "random-sparse", "n": n, "seed": 1, "task": "wakeup",
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() int {
		req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	// Warm: first request generates the instance and advice.
	if code := serve(); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	avg := testing.AllocsPerRun(50, func() {
		if code := serve(); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	// The simulation itself stays within the engine's pooled budget
	// (~n/2 scheduler slack); everything else is fixed HTTP/JSON overhead
	// independent of n. The constant is headroom over observed cost, small
	// enough that a per-node or per-edge allocation regression (256+) trips.
	budget := float64(n/2 + 200)
	if avg > budget {
		t.Errorf("steady-state /v1/run allocates %.1f per request, budget %.0f", avg, budget)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (c + i) % 3 {
				case 0:
					w := postJSON(t, s.Handler(), "/v1/run", map[string]any{
						"family": "random-sparse", "n": 32, "seed": i % 4, "task": "broadcast",
					})
					if w.Code != http.StatusOK {
						t.Errorf("run: status %d: %s", w.Code, w.Body.String())
					}
				case 1:
					w := postJSON(t, s.Handler(), "/v1/advice", map[string]any{
						"family": "random-sparse", "n": 32, "seed": i % 4, "task": "wakeup",
					})
					if w.Code != http.StatusOK {
						t.Errorf("advice: status %d: %s", w.Code, w.Body.String())
					}
				default:
					getPath(t, s.Handler(), "/metrics")
					getPath(t, s.Handler(), "/healthz")
				}
			}
		}()
	}
	wg.Wait()
}

// TestConfigDefaults pins the documented zero-value defaults.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"QueueDepth", c.QueueDepth, 64},
		{"RequestTimeout", c.RequestTimeout, 30 * time.Second},
		{"RetryAfter", c.RetryAfter, time.Second},
		{"MaxNodes", c.MaxNodes, 4096},
		{"MaxEdges", c.MaxEdges, 1 << 20},
		{"MaxBodyBytes", c.MaxBodyBytes, int64(1 << 20)},
		{"MaxMessageBudget", c.MaxMessageBudget, 1 << 24},
		{"CacheCapacity", c.CacheCapacity, 128},
		{"MaxCampaignUnits", c.MaxCampaignUnits, 1 << 16},
		{"BatchMax", c.BatchMax, 16},
		{"ResponseCacheCapacity", c.ResponseCacheCapacity, 4096},
	}
	for _, tc := range checks {
		if fmt.Sprint(tc.got) != fmt.Sprint(tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if c.Workers <= 0 {
		t.Errorf("Workers = %d", c.Workers)
	}
}

// TestShardEndpointMatchesLocalRun is the worker half of the distributed
// determinism contract: executing a spec through POST /v1/shard requests
// and merging the batches yields the same bytes (modulo wall_ns) as one
// local campaign.Run of the spec.
func TestShardEndpointMatchesLocalRun(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := campaign.QuickSpec()
	units := spec.Units()

	var local bytes.Buffer
	if _, err := campaign.Run(spec, campaign.NewSink(&local), campaign.RunOptions{Workers: 2}); err != nil {
		t.Fatalf("local run: %v", err)
	}

	var merged bytes.Buffer
	sink := campaign.NewSink(&merged)
	for start := 0; start < len(units); start += 7 {
		sh := campaign.Shard{Start: start, End: min(start+7, len(units))}
		w := postJSON(t, s.Handler(), "/v1/shard", map[string]any{
			"spec": spec, "start": sh.Start, "end": sh.End,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("shard %v: status %d: %s", sh, w.Code, w.Body.String())
		}
		resp := decode[shardResponse](t, w)
		if resp.SpecHash != spec.Hash() || len(resp.Units) != sh.Len() {
			t.Fatalf("shard %v: hash %q, %d batches", sh, resp.SpecHash, len(resp.Units))
		}
		for off, recs := range resp.Units {
			if err := sink.Deposit(sh.Start+off, recs); err != nil {
				t.Fatal(err)
			}
		}
	}

	strip := regexp.MustCompile(`"wall_ns":\d+`)
	a := strip.ReplaceAllString(local.String(), `"wall_ns":0`)
	b := strip.ReplaceAllString(merged.String(), `"wall_ns":0`)
	if a != b {
		t.Error("shard-merged JSONL differs from local campaign run")
	}

	if text := getPath(t, s.Handler(), "/metrics").Body.String(); !strings.Contains(text, fmt.Sprintf("oracled_shard_units_total %d", len(units))) {
		t.Error("metrics missing shard unit count")
	}
}

func TestShardValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxShardUnits: 4, MaxNodes: 64})
	spec := campaign.QuickSpec()
	total := int(spec.UnitCount())
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"invalid spec", map[string]any{"spec": map[string]any{"trials": 0}, "start": 0, "end": 1}, http.StatusBadRequest},
		{"negative start", map[string]any{"spec": spec, "start": -1, "end": 1}, http.StatusBadRequest},
		{"empty range", map[string]any{"spec": spec, "start": 2, "end": 2}, http.StatusBadRequest},
		{"end past total", map[string]any{"spec": spec, "start": 0, "end": total + 1}, http.StatusBadRequest},
		{"over shard cap", map[string]any{"spec": spec, "start": 0, "end": 5}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := postJSON(t, s.Handler(), "/v1/shard", c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.want, w.Body.String())
		}
	}

	big := campaign.QuickSpec()
	big.Sizes = []int{4096}
	if w := postJSON(t, s.Handler(), "/v1/shard", map[string]any{"spec": big, "start": 0, "end": 2}); w.Code != http.StatusBadRequest {
		t.Errorf("oversized n: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

func TestHealthzReportsBuildAndCatalog(t *testing.T) {
	s := newTestServer(t, Config{})
	h := decode[healthResponse](t, getPath(t, s.Handler(), "/healthz"))
	if h.Build.GoVersion == "" || h.Build.ModuleVersion == "" {
		t.Errorf("healthz build info incomplete: %+v", h.Build)
	}
	if h.CatalogFingerprint != catalog.Fingerprint() {
		t.Errorf("healthz fingerprint %q != catalog %q", h.CatalogFingerprint, catalog.Fingerprint())
	}
	if len(h.CatalogFingerprint) != 16 {
		t.Errorf("fingerprint %q not 16 hex chars", h.CatalogFingerprint)
	}
}

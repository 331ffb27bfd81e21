package service

// The deterministic admission harness: table-driven scripts replay
// (tenant, endpoint, virtual time) sequences against a real Server and
// assert the exact status code and Retry-After value of every response.
// The server clock is faked, so token-bucket refill is a pure function
// of the script timestamps — no sleeps, no flaky margins — and the
// Retry-After math (ceil of the bucket deficit, or the configured hint
// for slot/queue rejections) is pinned to the second.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/tenant"
)

// admissionStep is one scripted request. Zero values default to POST
// /v1/run with the shared run body. retryAfter is compared exactly: ""
// asserts the header is absent.
type admissionStep struct {
	at         time.Duration // virtual-clock offset from the script base
	key        string        // tenant API key ("" = no credentials)
	path       string
	body       any
	want       int
	retryAfter string
	// prep, when set, twists server state before the request fires (e.g.
	// parking the worker to force queue rejections). It must leave any
	// blocked requests releasable via t.Cleanup.
	prep func(t *testing.T, s *Server)
}

type admissionScript struct {
	name  string
	specs []tenant.Spec
	cfg   Config
	steps []admissionStep
}

// runBody returns a distinct /v1/run payload per seed, so scripts can
// dodge the response cache when a step must reach the queue.
func runBody(seed int) map[string]any {
	return map[string]any{"family": "random-sparse", "n": 16, "seed": seed, "task": "wakeup"}
}

func (sc admissionScript) run(t *testing.T) {
	base := time.Unix(20000, 0)
	var clockMu sync.Mutex
	now := base
	cfg := sc.cfg
	cfg.TenantStore = testStore(t, sc.specs...)
	s := newTestServer(t, cfg)
	s.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	for i, step := range sc.steps {
		clockMu.Lock()
		now = base.Add(step.at)
		clockMu.Unlock()
		if step.prep != nil {
			step.prep(t, s)
		}
		path := step.path
		if path == "" {
			path = "/v1/run"
		}
		body := step.body
		if body == nil {
			body = tenantRunBody
		}
		w := postJSONKey(t, s.Handler(), path, step.key, body)
		if w.Code != step.want {
			t.Fatalf("step %d (t=%v, key %q, %s): status %d, want %d: %s",
				i, step.at, step.key, path, w.Code, step.want, w.Body.String())
		}
		if got := w.Header().Get("Retry-After"); got != step.retryAfter {
			t.Fatalf("step %d (t=%v, key %q): Retry-After = %q, want %q",
				i, step.at, step.key, got, step.retryAfter)
		}
	}
}

// parkWorker gates the lone worker on one admitted request and then
// queues n more, so the next scripted request hits the admission path
// with the queue in a known state. Seeds start at seedBase so none of the
// parked requests or the scripted one can hit the response cache.
func parkWorker(seedBase, n int) func(t *testing.T, s *Server) {
	return func(t *testing.T, s *Server) {
		t.Helper()
		entered := make(chan struct{}, n+1)
		gate := make(chan struct{})
		var once sync.Once
		release := func() { once.Do(func() { close(gate) }) }
		s.testHook = func() {
			entered <- struct{}{}
			<-gate
		}
		results := make(chan *httptest.ResponseRecorder, n+1)
		go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", runBody(seedBase)) }()
		<-entered
		for i := 1; i <= n; i++ {
			body := runBody(seedBase + i)
			go func() { results <- postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", body) }()
		}
		waitFor(t, "queue to fill", func() bool { return int(s.metrics.queued.Load()) == n })
		t.Cleanup(func() {
			release()
			for i := 0; i < n+1; i++ {
				if w := <-results; w.Code != http.StatusOK {
					t.Errorf("parked request %d: status %d: %s", i, w.Code, w.Body.String())
				}
			}
		})
	}
}

// TestAdmissionScripts is the scripted port of the PR 9 quota tests: each
// script is a fully deterministic (tenant, endpoint, time) sequence with
// exact status and Retry-After assertions.
func TestAdmissionScripts(t *testing.T) {
	scripts := []admissionScript{
		{
			// Authentication outcomes: bogus and missing keys 401 without a
			// Retry-After hint; the valid key serves.
			name: "auth-lifecycle",
			steps: []admissionStep{
				{key: "bogus-key-000", want: http.StatusUnauthorized},
				{key: "", want: http.StatusUnauthorized},
				{key: "interactive-key", want: http.StatusOK},
			},
		},
		{
			// Token-bucket refill to the second: bulk (rate 1/s, burst 2)
			// spends its burst at t=0, is refused with an exact 1s hint, gets
			// exactly one token back after a second, and caps at burst after a
			// long idle gap. interactive (unlimited) is untouched throughout.
			name: "rate-limit-refill",
			steps: []admissionStep{
				{at: 0, key: "bulk-key-0000", want: http.StatusOK},
				{at: 0, key: "bulk-key-0000", want: http.StatusOK},
				{at: 0, key: "bulk-key-0000", want: http.StatusTooManyRequests, retryAfter: "1"},
				{at: 500 * time.Millisecond, key: "bulk-key-0000", want: http.StatusTooManyRequests, retryAfter: "1"},
				{at: 500 * time.Millisecond, key: "interactive-key", want: http.StatusOK},
				{at: 1500 * time.Millisecond, key: "bulk-key-0000", want: http.StatusOK},
				{at: 1500 * time.Millisecond, key: "bulk-key-0000", want: http.StatusTooManyRequests, retryAfter: "1"},
				{at: 20 * time.Second, key: "bulk-key-0000", want: http.StatusOK},
				{at: 20 * time.Second, key: "bulk-key-0000", want: http.StatusOK},
				{at: 20 * time.Second, key: "bulk-key-0000", want: http.StatusTooManyRequests, retryAfter: "1"},
			},
		},
		{
			// A slow lane (rate 0.25/s, burst 1): the deficit-based hint
			// shrinks as virtual time passes — 4s right after the spend, 2s
			// halfway through the refill — and admission returns exactly when
			// a whole token is back.
			name: "retry-after-tracks-deficit",
			specs: []tenant.Spec{
				{Name: "slow", Key: "slow-key-0000", RatePerSec: 0.25, Burst: 1},
				{Name: "interactive", Key: "interactive-key"},
			},
			steps: []admissionStep{
				{at: 0, key: "slow-key-0000", want: http.StatusOK},
				{at: 0, key: "slow-key-0000", want: http.StatusTooManyRequests, retryAfter: "4"},
				{at: 2 * time.Second, key: "slow-key-0000", want: http.StatusTooManyRequests, retryAfter: "2"},
				{at: 6 * time.Second, key: "slow-key-0000", want: http.StatusOK},
			},
		},
		{
			// Per-tenant body caps: the same payload passes for roomy and is
			// 413 for tiny, with no Retry-After (resending won't help).
			name: "body-cap-413",
			specs: []tenant.Spec{
				{Name: "tiny", Key: "tiny-key-0000", MaxBodyBytes: 16},
				{Name: "roomy", Key: "roomy-key-000"},
			},
			steps: []admissionStep{
				{key: "roomy-key-000", want: http.StatusOK},
				{key: "tiny-key-0000", want: http.StatusRequestEntityTooLarge},
			},
		},
		{
			// Queue-slot quota: with the worker parked and one interactive
			// job queued, a slot-capped tenant's own job occupies its single
			// slot and the next one throttles with the configured hint —
			// 429 (your quota), not 503 (server full).
			name: "slot-cap-429",
			specs: []tenant.Spec{
				{Name: "interactive", Key: "interactive-key"},
				{Name: "capped", Key: "capped-key-00", MaxQueueSlots: 1},
			},
			cfg: Config{Workers: 1, QueueDepth: 8},
			steps: []admissionStep{
				{key: "capped-key-00", body: runBody(110), want: http.StatusOK},
				{
					prep: func(t *testing.T, s *Server) {
						// Park the worker on an interactive job, then queue one
						// capped job: it takes capped's single slot while the
						// global queue (depth 8) stays nearly empty.
						entered := make(chan struct{}, 4)
						gate := make(chan struct{})
						var once sync.Once
						release := func() { once.Do(func() { close(gate) }) }
						s.testHook = func() {
							entered <- struct{}{}
							<-gate
						}
						results := make(chan *httptest.ResponseRecorder, 2)
						go func() {
							results <- postJSONKey(t, s.Handler(), "/v1/run", "interactive-key", runBody(100))
						}()
						<-entered
						go func() {
							results <- postJSONKey(t, s.Handler(), "/v1/run", "capped-key-00", runBody(111))
						}()
						waitFor(t, "capped job to queue", func() bool { return s.metrics.queued.Load() == 1 })
						t.Cleanup(func() {
							release()
							for i := 0; i < 2; i++ {
								if w := <-results; w.Code != http.StatusOK {
									t.Errorf("parked request %d: status %d: %s", i, w.Code, w.Body.String())
								}
							}
						})
					},
					key: "capped-key-00", body: runBody(112),
					want: http.StatusTooManyRequests, retryAfter: "1",
				},
			},
		},
		{
			// Global queue exhaustion: every slot taken, so even an
			// unlimited tenant sheds with 503 and the configured hint.
			name: "queue-full-503",
			cfg:  Config{Workers: 1, QueueDepth: 1},
			steps: []admissionStep{
				{key: "interactive-key", body: runBody(210), want: http.StatusOK},
				{
					prep: parkWorker(200, 1),
					key:  "interactive-key", body: runBody(212),
					want: http.StatusServiceUnavailable, retryAfter: "1",
				},
			},
		},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) { sc.run(t) })
	}
}

// TestAdmissionScriptQuotaReload scripts a hot quota change through the
// harness: the same tenant's admission outcome flips between policy
// generations without the server restarting, and its bucket level carries
// across the swap (tightening the rate does not mint fresh tokens).
func TestAdmissionScriptQuotaReload(t *testing.T) {
	st := testStore(t,
		tenant.Spec{Name: "elastic", Key: "elastic-key-0", RatePerSec: 100, Burst: 3},
	)
	base := time.Unix(30000, 0)
	var clockMu sync.Mutex
	now := base
	s := newTestServer(t, Config{TenantStore: st})
	s.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	reload := func(sp tenant.Spec) {
		t.Helper()
		if _, err := st.PutKey(sp); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ReloadFromStore(); err != nil {
			t.Fatal(err)
		}
	}

	// Generation 1: burst 3 admits three back-to-back requests.
	for i := 0; i < 3; i++ {
		if w := postJSONKey(t, s.Handler(), "/v1/run", "elastic-key-0", tenantRunBody); w.Code != http.StatusOK {
			t.Fatalf("gen1 request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	// Tighten to rate 0.5/s burst 1 and hot-reload. The drained bucket
	// rides on the tenant's state: the next request must still be refused,
	// now with the slower rate's deficit (1 token / 0.5 per s = 2s).
	reload(tenant.Spec{Name: "elastic", Key: "elastic-key-0", RatePerSec: 0.5, Burst: 1})
	w := postJSONKey(t, s.Handler(), "/v1/run", "elastic-key-0", tenantRunBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("post-tighten status %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("post-tighten Retry-After = %q, want 2 (deficit at the new rate)", got)
	}

	// The new policy governs refill: 2 virtual seconds restore exactly one
	// token under the tightened rate.
	clockMu.Lock()
	now = base.Add(2 * time.Second)
	clockMu.Unlock()
	if w := postJSONKey(t, s.Handler(), "/v1/run", "elastic-key-0", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("post-refill status %d: %s", w.Code, w.Body.String())
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "elastic-key-0", tenantRunBody); w.Code != http.StatusTooManyRequests {
		t.Fatalf("burst-1 second request status %d, want 429", w.Code)
	}

	// Loosening back up takes effect the same way — and the counter state
	// (requests served) survived both swaps.
	reload(tenant.Spec{Name: "elastic", Key: "elastic-key-0"})
	for i := 0; i < 5; i++ {
		if w := postJSONKey(t, s.Handler(), "/v1/run", "elastic-key-0", tenantRunBody); w.Code != http.StatusOK {
			t.Fatalf("post-loosen request %d: status %d", i, w.Code)
		}
	}
	ts := s.table().states["elastic"]
	if ts == nil {
		t.Fatal("elastic state missing after two swaps")
	}
	var total int64
	for code := range ts.codes {
		total += ts.codes[code].Load()
	}
	if total != 11 { // 3 + 1(429) + 1 + 1(429) + 5
		t.Errorf("elastic request count across generations = %d, want 11", total)
	}
	if gen := s.TenantGeneration(); gen != st.Generation() || gen < 3 {
		t.Errorf("generation = %d, want the store's %d after two policy changes", gen, st.Generation())
	}
}

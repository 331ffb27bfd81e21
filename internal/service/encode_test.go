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

	"oraclesize/internal/catalog"
)

// stdlibEncode is the identity target: json.NewEncoder with HTML escaping
// and a trailing newline.
func stdlibEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wallNS matches the one response field that is not a function of the
// request.
var wallNS = regexp.MustCompile(`"wall_ns":\d+`)

// TestResponseBytesGolden pins the exact bytes oracled serves on a miss,
// wall_ns masked, against testdata/responses.golden: the 200 bodies of
// /v1/run for every canonical scheme of every task under each scheduler
// and for each alias under fifo, /v1/advice for every canonical scheme
// with and without include_advice, and three 400 bodies. The unknown names
// carry '<', '>' and '&', so the golden also pins encoding/json's HTML
// escaping; every body ends in the encoder's trailing newline, so the
// next request line would join the body's line without it.
func TestResponseBytesGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	var out strings.Builder
	serve := func(path string, body map[string]any, wantCode int) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(data)))
		if w.Code != wantCode {
			t.Fatalf("%s %s: status %d, want %d: %s", path, data, w.Code, wantCode, w.Body.String())
		}
		fmt.Fprintf(&out, "POST %s %s -> %d\n", path, data, w.Code)
		out.Write(wallNS.ReplaceAll(w.Body.Bytes(), []byte(`"wall_ns":<masked>`)))
	}
	run := func(task, scheme, scheduler string) map[string]any {
		return map[string]any{"family": "random-sparse", "n": 32, "seed": 1,
			"task": task, "scheme": scheme, "scheduler": scheduler}
	}
	tasks := catalog.Tasks()
	for _, task := range tasks {
		for _, sc := range task.Schemes {
			for _, sched := range catalog.SchedulerNames() {
				serve("/v1/run", run(task.Name, sc.Name, sched), http.StatusOK)
			}
		}
	}
	for _, task := range tasks {
		for _, sc := range task.Schemes {
			for _, alias := range sc.Aliases {
				serve("/v1/run", run(task.Name, alias, "fifo"), http.StatusOK)
			}
		}
	}
	for _, task := range tasks {
		for _, sc := range task.Schemes {
			for _, include := range []bool{false, true} {
				serve("/v1/advice", map[string]any{"family": "random-sparse", "n": 16, "seed": 1,
					"task": task.Name, "scheme": sc.Name, "include_advice": include}, http.StatusOK)
			}
		}
	}
	serve("/v1/run", run("wakeup", "<none>", "fifo"), http.StatusBadRequest)
	serve("/v1/run", map[string]any{"family": "random&sparse", "n": 32, "seed": 1, "task": "wakeup"},
		http.StatusBadRequest)
	capped := run("wakeup", "flooding", "fifo")
	capped["max_messages"] = 5
	serve("/v1/run", capped, http.StatusBadRequest)
	compareGolden(t, "testdata/responses.golden", out.String())
}

// TestServedBytesMatchStdlibRoundtrip checks byte identity end to end: the
// body the handler tree serves (fast encoder, miss path) and the body a
// repeat request gets (cache hit) must both equal the stdlib encoding of
// the decoded response — i.e. exactly what the pre-fast-lane server sent.
func TestServedBytesMatchStdlibRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/v1/run", map[string]any{"family": "random-sparse", "n": 64, "seed": 5, "task": "broadcast"}},
		{"/v1/run", map[string]any{"family": "cycle", "n": 32, "seed": 2, "task": "wakeup", "scheduler": "random"}},
		{"/v1/advice", map[string]any{"family": "random-sparse", "n": 64, "seed": 5, "task": "broadcast"}},
		{"/v1/advice", map[string]any{"family": "cycle", "n": 16, "seed": 1, "task": "wakeup", "include_advice": true}},
	}
	for _, tc := range cases {
		miss := postJSON(t, s.Handler(), tc.path, tc.body)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", tc.path, tc.body, miss.Code, miss.Body.String())
		}
		hit := postJSON(t, s.Handler(), tc.path, tc.body)
		if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
			t.Errorf("%s: cache hit bytes differ from miss bytes", tc.path)
		}
		var want []byte
		if tc.path == "/v1/run" {
			v := decode[runResponse](t, miss)
			want = stdlibEncode(t, &v)
		} else {
			v := decode[adviceResponse](t, miss)
			want = stdlibEncode(t, &v)
		}
		if !bytes.Equal(miss.Body.Bytes(), want) {
			t.Errorf("%s: served bytes differ from stdlib encoding:\nserved: %s\nstdlib: %s",
				tc.path, miss.Body.Bytes(), want)
		}
		if got := miss.Header().Get("Content-Length"); got != fmt.Sprint(miss.Body.Len()) {
			t.Errorf("%s: Content-Length = %q, body is %d bytes", tc.path, got, miss.Body.Len())
		}
	}
}

// TestResponseCacheServesRepeatsWithoutQueue: a repeat of a deterministic
// request must be answered from the response cache — no job dispatched —
// while the goroutines engine must never be cached.
func TestResponseCacheServesRepeatsWithoutQueue(t *testing.T) {
	s := newTestServer(t, Config{})
	body := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "broadcast"}
	for i := 0; i < 3; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := s.metrics.respHits.Load(); got != 2 {
		t.Errorf("respHits = %d, want 2", got)
	}
	if got := s.metrics.dispatched.Load(); got != 1 {
		t.Errorf("dispatched jobs = %d, want 1 (repeats must bypass the queue)", got)
	}

	// The goroutines engine races real goroutines; every request executes.
	conc := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "wakeup", "engine": "goroutines"}
	for i := 0; i < 2; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", conc); w.Code != http.StatusOK {
			t.Fatalf("goroutines request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := s.metrics.respHits.Load(); got != 2 {
		t.Errorf("respHits after goroutines requests = %d, want 2 (engine must not be cached)", got)
	}
	if got := s.metrics.dispatched.Load(); got != 3 {
		t.Errorf("dispatched jobs = %d, want 3", got)
	}
}

// TestResponseCacheDisabled: a negative capacity turns the fast lane off
// and every request executes.
func TestResponseCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{ResponseCacheCapacity: -1})
	if s.responses != nil {
		t.Fatal("responses cache built despite negative capacity")
	}
	body := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "broadcast"}
	for i := 0; i < 2; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if got := s.metrics.dispatched.Load(); got != 2 {
		t.Errorf("dispatched jobs = %d, want 2", got)
	}
	if got := s.metrics.respHits.Load(); got != 0 {
		t.Errorf("respHits = %d, want 0", got)
	}
}

// TestRespCacheEvictionBounded mirrors the instance cache's leak
// regression: churning far more keys than capacity through a shard must
// leave both the map and the order slice's backing array bounded, and
// oversized bodies must not be stored.
func TestRespCacheEvictionBounded(t *testing.T) {
	c := newRespCache(4, 1)
	for i := 0; i < 10_000; i++ {
		c.put([]byte(fmt.Sprintf("key-%d", i)), []byte("{}"))
	}
	sh := &c.shards[0]
	if len(sh.entries) > 4 {
		t.Errorf("entries = %d, want <= 4", len(sh.entries))
	}
	if got := cap(sh.order); got > 16 {
		t.Errorf("order backing array holds %d slots after 10k puts, want <= 16", got)
	}
	c.put([]byte("big"), make([]byte, maxCachedResponse+1))
	if c.get([]byte("big")) != nil {
		t.Error("oversized body was cached")
	}
}

// TestBatchedDispatchDrainsQueue: with a worker parked and a backlog
// queued, releasing the worker must drain the backlog in one wakeup —
// observable as two batches (the solo first job, then the drained four).
func TestBatchedDispatchDrainsQueue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, BatchMax: 4, ResponseCacheCapacity: -1})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-gate
	}
	body := map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusOK {
			t.Errorf("status %d: %s", w.Code, w.Body.String())
		}
	}
	wg.Add(1)
	go post()
	<-entered // worker parked inside job 1
	const backlog = 4
	wg.Add(backlog)
	for i := 0; i < backlog; i++ {
		go post()
	}
	waitFor(t, "backlog queued", func() bool { return s.metrics.queued.Load() == backlog })
	close(gate)
	wg.Wait()
	if got := s.metrics.batches.Load(); got != 2 {
		t.Errorf("batches = %d, want 2 (solo job, then one drained batch)", got)
	}
	if got := s.metrics.dispatched.Load(); got != backlog+1 {
		t.Errorf("dispatched = %d, want %d", got, backlog+1)
	}
}

// postAllocs measures allocations per request through the full handler
// tree, harness included (httptest request + recorder construction).
func postAllocs(t *testing.T, h http.Handler, path string, body map[string]any) float64 {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(data)))
	if w.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	return testing.AllocsPerRun(200, func() {
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatal("request failed")
		}
	})
}

// TestAllocBudgetHotPaths pins the steady-state allocation budget of the
// /v1/advice and /v1/run fast lanes. The measured number includes ~25
// allocations of httptest harness per request; the handler path itself
// (read, decode, key, cache lookup, write) holds the rest. Before the fast
// lane the same measurement was ~90 allocations and ~114 KB per request.
func TestAllocBudgetHotPaths(t *testing.T) {
	s := newTestServer(t, Config{})
	const budget = 45
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/advice", map[string]any{"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast"}},
		{"/v1/run", map[string]any{"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast"}},
	} {
		if got := postAllocs(t, s.Handler(), tc.path, tc.body); got > budget {
			t.Errorf("%s: %.1f allocs/request, budget %d", tc.path, got, budget)
		}
	}
}

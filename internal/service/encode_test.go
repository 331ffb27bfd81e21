package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
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
// body the handler tree serves on a miss and the body a repeat request
// gets (cache hit) must both equal the stdlib encoding of the decoded
// response.
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

// TestResponseCacheKeysOnBody pins the response cache's key, the endpoint
// plus the body bytes as sent, and what counts as a miss: a storable
// request that reached execution.
func TestResponseCacheKeysOnBody(t *testing.T) {
	s := newTestServer(t, Config{})
	post := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return w
	}
	var hits, misses, dispatched int64
	expect := func(step string, dh, dm, dd int64) {
		t.Helper()
		hits, misses, dispatched = hits+dh, misses+dm, dispatched+dd
		if h, m, d := s.metrics.respHits.Load(), s.metrics.respMisses.Load(), s.metrics.dispatched.Load(); h != hits || m != misses || d != dispatched {
			t.Errorf("%s: hits, misses, dispatched = %d, %d, %d; want %d, %d, %d", step, h, m, d, hits, misses, dispatched)
		}
	}
	ok := func(step string, w *httptest.ResponseRecorder) []byte {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, w.Code, w.Body.String())
		}
		return wallNS.ReplaceAll(w.Body.Bytes(), []byte(`"wall_ns":0`))
	}

	const body = `{"family":"random-sparse","n":32,"seed":3,"task":"broadcast"}`
	first := post("/v1/run", body)
	want := ok("first", first)
	expect("first", 0, 1, 1)
	if hit := post("/v1/run", body); !bytes.Equal(hit.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("repeat: status %d, body differs from the first:\n%s\n%s", hit.Code, hit.Body.Bytes(), first.Body.Bytes())
	}
	expect("same bytes", 1, 0, 0)

	for _, spelling := range []string{
		`{"task":"broadcast","seed":3,"n":32,"family":"random-sparse"}`,
		`{"family": "random-sparse", "n": 32, "seed": 3, "task": "broadcast"}`,
	} {
		if got := ok(spelling, post("/v1/run", spelling)); !bytes.Equal(got, want) {
			t.Errorf("%s: answer differs beyond wall_ns:\n%s\n%s", spelling, got, want)
		}
		expect(spelling, 0, 1, 1)
		ok(spelling+" again", post("/v1/run", spelling))
		expect(spelling+" again", 1, 0, 0)
	}

	// The endpoint tag keeps /v1/advice apart from /v1/run.
	ok("advice", post("/v1/advice", body))
	expect("advice with a run body", 0, 1, 1)

	padded := strings.Replace(body, ",", ","+strings.Repeat(" ", maxCachedRequest), 1)
	for i := 0; i < 2; i++ {
		if got := ok("padded", post("/v1/run", padded)); !bytes.Equal(got, want) {
			t.Errorf("padded body: answer differs beyond wall_ns:\n%s\n%s", got, want)
		}
		expect("padded body", 0, 0, 1)
	}

	// Responses over maxCachedResponse execute every time.
	big := `{"family":"random-sparse","n":1024,"seed":3,"task":"broadcast","include_advice":true}`
	for i := 0; i < 2; i++ {
		if n := len(ok("big", post("/v1/advice", big))); n <= maxCachedResponse {
			t.Fatalf("include_advice body is %d bytes, not over the %d-byte bound", n, maxCachedResponse)
		}
		expect("oversized response", 0, 1, 1)
	}

	conc := `{"family":"random-sparse","n":32,"seed":3,"task":"broadcast","engine":"goroutines"}`
	for i := 0; i < 2; i++ {
		ok("goroutines", post("/v1/run", conc))
		expect("goroutines engine", 0, 0, 1)
	}

	for _, bad := range []string{
		`{"family":"random-sparse","n":32,`,
		`{"family":"random-sparse","n":32,"seed":3,"task":"broadcast","scheme":"psychic"}`,
	} {
		for i := 0; i < 2; i++ {
			if w := post("/v1/run", bad); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", bad, w.Code)
			}
			expect(bad, 0, 0, 0)
		}
	}
}

// TestRespCacheEvictionBounded: churning far more stored responses than
// the capacity through storeResponse must leave at most the capacity
// resident, the newest among them, and a response over maxCachedResponse
// must be answered but not stored.
func TestRespCacheEvictionBounded(t *testing.T) {
	const capacity, churn = 4, 10_000
	s := newTestServer(t, Config{ResponseCacheCapacity: capacity})
	key := func(i int) []byte { return fmt.Appendf(nil, "r{\"seed\":%d}", i) }
	for i := 0; i < churn; i++ {
		if _, err := s.storeResponse(&reqScratch{key: key(i)}, map[string]int{"seed": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for i := 0; i < churn; i++ {
		if _, ok := s.responses.Get(key(i)); ok {
			resident++
		}
	}
	if resident > capacity {
		t.Errorf("%d of %d stored responses resident, want <= %d", resident, churn, capacity)
	}
	if _, ok := s.responses.Get(key(churn - 1)); !ok {
		t.Error("newest stored response was evicted")
	}

	big := []byte("a{\"big\"}")
	enc, err := s.storeResponse(&reqScratch{key: big}, strings.Repeat("x", maxCachedResponse), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(enc.(rawJSON)); n <= maxCachedResponse {
		t.Fatalf("encoded body is %d bytes, not over the %d-byte bound", n, maxCachedResponse)
	}
	if _, ok := s.responses.Get(big); ok {
		t.Error("oversized body was cached")
	}
	if got := s.metrics.respMisses.Load(); got != churn+1 {
		t.Errorf("respMisses = %d, want %d", got, churn+1)
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

// TestAllocBudgetHotPaths pins the steady-state allocation budget of a
// /v1/advice and /v1/run response-cache hit. The measured number includes
// 20 allocations of httptest harness per request; the handler path itself
// (read, key, cache lookup, write) holds the rest, 24 in all at n = 64 and
// 256. Decoding the request would cost about 10 more.
func TestAllocBudgetHotPaths(t *testing.T) {
	s := newTestServer(t, Config{})
	const budget = 30
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

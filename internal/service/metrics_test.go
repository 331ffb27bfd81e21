package service

import (
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// enginePoolSample matches the process-wide engine pool samples, whose
// values depend on every simulation the test binary ran before this test.
var enginePoolSample = regexp.MustCompile(`(?m)^(oracled_engine_pool_\w+) .*$`)

// TestMetricsExposition pins the whole /metrics page for a fixed server
// state against testdata/metrics.golden: every series name perfbench
// scrapes and CI greps, the family order, label quoting, zero
// suppression and the cumulative histogram layout.
func TestMetricsExposition(t *testing.T) {
	st := testStore(t) // tenants "interactive" and "bulk" at generation 2
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantStore: st})
	// Re-putting a spec bumps the generation; one reload serves it.
	bulkSpec, _ := st.Get("bulk")
	if err := st.Put(bulkSpec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReloadFromStore(); err != nil {
		t.Fatal(err)
	}
	tbl := s.table()
	interactive, bulk := tbl.states["interactive"], tbl.states["bulk"]

	// record mirrors what the instrumented handler path counts for one
	// finished request, with a chosen duration so the page is stable.
	record := func(endpoint string, ts *tenantState, code int, d time.Duration) {
		s.metrics.endpoint(endpoint).observe(code, d)
		ts.codes[code].Add(1)
		ts.ledger.requests.Add(1)
		switch code {
		case http.StatusTooManyRequests:
			s.metrics.throttled.Add(1)
			ts.throttled.Add(1)
		case http.StatusServiceUnavailable:
			s.metrics.shed.Add(1)
			ts.shed.Add(1)
		}
	}
	record("/v1/run", interactive, 200, 300*time.Microsecond)
	record("/v1/run", interactive, 200, 3*time.Millisecond)
	record("/v1/advice", interactive, 200, 20*time.Millisecond)
	record("/v1/run", bulk, 429, time.Millisecond)
	record("/v1/run", bulk, 503, 12*time.Second) // past the last bucket
	record("/v1/shard", bulk, 200, 750*time.Millisecond)
	record("/v1/run", s.unknown, 401, 100*time.Microsecond)
	record("/healthz", s.anonymous, 200, 50*time.Microsecond)

	interactive.ledger.units.Add(5)
	interactive.ledger.queueNanos.Add(1500 * int64(time.Millisecond))
	interactive.ledger.bytes.Add(1234)
	bulk.ledger.units.Add(40)
	bulk.ledger.bytes.Add(99)
	s.anonymous.ledger.queueNanos.Add(250 * int64(time.Microsecond)) // perfbench scrapes this series
	s.metrics.shardUnits.Add(40)
	s.metrics.dispatched.Add(5)
	s.metrics.respHits.Add(7)
	s.metrics.respMisses.Add(2)
	s.metrics.dropped.Add(1)

	w := getPath(t, s.Handler(), "/metrics")
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := enginePoolSample.ReplaceAllString(w.Body.String(), "$1 <masked>")
	compareGolden(t, "testdata/metrics.golden", got)
}

// compareGolden fails the test at the first line where got departs from
// the golden file.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs\n got %q\nwant %q", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
	}
}

package cluster

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func scrapeCoordinator(t *testing.T, c *Coordinator) string {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// TestMetricsExposition pins the coordinator's whole /metrics page for a
// fixed state against testdata/metrics.golden: two joined workers, one
// draining, with ok and failed shards and one shard past the last
// latency bucket.
func TestMetricsExposition(t *testing.T) {
	c, err := newQuick(Config{Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"http://10.0.0.1:8081", "http://10.0.0.2:8082"} {
		if _, err := c.Join(joinAs(url)); err != nil {
			t.Fatal(err)
		}
	}
	draining := joinAs("http://10.0.0.2:8082")
	draining.Draining = true
	if _, err := c.Join(draining); err != nil {
		t.Fatal(err)
	}
	m := c.core.m
	m.retries.Add(2)
	m.hedges.Add(1)
	m.reassignments.Add(1)
	// Durations are dyadic fractions of a second, so their sums are exact
	// however the histogram accumulates them.
	m.observeShard("http://10.0.0.1:8081", true, 62500*time.Microsecond)
	m.observeShard("http://10.0.0.1:8081", true, 3*time.Second)
	m.observeShard("http://10.0.0.1:8081", false, 150*time.Second) // past the last bucket
	m.observeShard("http://10.0.0.2:8082", false, 7812500*time.Nanosecond)

	compareGolden(t, "testdata/metrics.golden", scrapeCoordinator(t, c))
}

// TestMetricsLabelEscaping is the regression test for worker IDs that
// need escaping: the text format defines only \\, \" and \n inside a
// label value, so a tab stays a raw byte and a quote or backslash is
// escaped — Go's %q quoting produced \t, which scrapers reject.
func TestMetricsLabelEscaping(t *testing.T) {
	c, err := newQuick(Config{Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"http://b\t:2", `http://c"\:3`} {
		if _, err := c.Join(joinAs(url)); err != nil {
			t.Fatal(err)
		}
	}
	page := scrapeCoordinator(t, c)
	for _, want := range []string{
		"oracleherd_worker_up{worker=\"http://b\t:2\"} 1\n",
		`oracleherd_worker_up{worker="http://c\"\\:3"} 1` + "\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page lacks %q:\n%s", want, page)
		}
	}
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

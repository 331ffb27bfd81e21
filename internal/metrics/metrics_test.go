package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"http://10.0.0.1:8081", `m{worker="http://10.0.0.1:8081"} 1`},
		{`back\slash`, `m{worker="back\\slash"} 1`},
		{`a "quoted" id`, `m{worker="a \"quoted\" id"} 1`},
		{"two\nlines", `m{worker="two\nlines"} 1`},
		{"http://b\t:2", "m{worker=\"http://b\t:2\"} 1"},
		{"caf\xc3\xa9 \xff", "m{worker=\"caf\xc3\xa9 \xff\"} 1"},
	} {
		var sb strings.Builder
		NewPage(&sb).Int("m", 1, "worker", tc.value)
		if got := sb.String(); got != tc.want+"\n" {
			t.Errorf("label %q rendered %q, want %q", tc.value, got, tc.want+"\n")
		}
	}
}

func TestPageFamilies(t *testing.T) {
	var c Codes
	c.Observe(200)
	c.Observe(200)
	c.Observe(503)
	c.Observe(-1)
	c.Observe(600)
	bounds := Bounds{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20}
	h := NewHistogram(&bounds)
	h.Observe(1500 * time.Microsecond)
	h.Observe(30 * time.Second) // past the last bucket

	var sb strings.Builder
	p := NewPage(&sb)
	p.Counter("a_total", "A counter.", 3)
	p.GaugeFloat("b_ratio", "A ratio.", 0.25)
	p.Family("req_total", "counter", "Requests by code.")
	p.Codes("req_total", &c, "endpoint", "/v1/run")
	p.Family("lat_seconds", "histogram", "Latency.")
	p.Histogram("lat_seconds", h, "endpoint", "/v1/run")
	want := `# HELP a_total A counter.
# TYPE a_total counter
a_total 3
# HELP b_ratio A ratio.
# TYPE b_ratio gauge
b_ratio 0.25
# HELP req_total Requests by code.
# TYPE req_total counter
req_total{endpoint="/v1/run",code="200"} 2
req_total{endpoint="/v1/run",code="503"} 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{endpoint="/v1/run",le="0.001"} 0
lat_seconds_bucket{endpoint="/v1/run",le="0.002"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.005"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.01"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.02"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.05"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.1"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.2"} 1
lat_seconds_bucket{endpoint="/v1/run",le="0.5"} 1
lat_seconds_bucket{endpoint="/v1/run",le="1"} 1
lat_seconds_bucket{endpoint="/v1/run",le="2"} 1
lat_seconds_bucket{endpoint="/v1/run",le="5"} 1
lat_seconds_bucket{endpoint="/v1/run",le="10"} 1
lat_seconds_bucket{endpoint="/v1/run",le="20"} 1
lat_seconds_bucket{endpoint="/v1/run",le="+Inf"} 2
lat_seconds_sum{endpoint="/v1/run"} 30.0015
lat_seconds_count{endpoint="/v1/run"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentObserve drives the instruments from several goroutines
// while a page renders, for the race detector, then checks no
// observation was lost across shards.
func TestConcurrentObserve(t *testing.T) {
	bounds := Bounds{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2}
	h := NewHistogram(&bounds)
	var c Codes
	const goroutines, each = 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g*each + i))
				c.Observe(200)
			}
		}(g)
	}
	var sb strings.Builder
	NewPage(&sb).Histogram("lat_seconds", h)
	wg.Wait()
	sb.Reset()
	p := NewPage(&sb)
	p.Histogram("lat_seconds", h)
	p.Codes("req_total", &c)
	for _, want := range []string{
		`lat_seconds_bucket{le="+Inf"} 4000`,
		`lat_seconds_bucket{le="1e-06"} 1001`,
		`lat_seconds_count 4000`,
		`req_total{code="200"} 4000`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("page lacks %q:\n%s", want, sb.String())
		}
	}
}

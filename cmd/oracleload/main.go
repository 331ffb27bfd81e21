// Command oracleload is a closed-loop load generator for oracled. It runs
// a fixed set of concurrent clients, each issuing the next request as soon
// as the previous response arrives, and appends a labeled throughput and
// latency entry to BENCH_serve.json — the serving-path companion to
// BENCH_sim.json, so successive PRs leave a comparable perf series.
//
//	oracleload [-url http://host:8080] [-c 8] [-d 5s] [-task broadcast]
//	           [-family random] [-n 256] [-seeds 8] [-label current]
//	           [-o BENCH_serve.json] [-api-key KEY]
//	oracleload -rate 20000 [...same flags]
//	oracleload -shard [-shard-units 8] [-scheme flooding] [...same flags]
//	oracleload -mixed [...same flags]
//
// With no -url, oracleload spins up an in-process oracled (no network) and
// drives it through its handler — the mode CI's smoke job uses. -shard
// switches the request stream from single-simulation /v1/run calls to the
// batch /v1/shard endpoint oracleherd drives, so the serve trajectory
// tracks both paths.
//
// Multi-tenant servers are first-class: -api-key rides every request as
// X-API-Key (point -url at an oracled started with -tenant-store), and
// responses shed for tenant quota reasons (429) are counted as
// "throttled", separately from capacity sheds (503). -mixed runs the
// two-tenant isolation scenario against an in-process multi-tenant server:
// a bulk tenant (weight 1, rate-capped) floods with -c clients while an
// interactive tenant (weight 8) probes with two, and each tenant's
// throughput, throttling, and latency are recorded as separate entries —
// the interactive tenant's p99 staying low under the flood is the
// scheduler's isolation at work.
//
// With -rate, oracleload switches from closed-loop to open-loop arrivals: a
// fixed-interval arrival clock issues requests at the offered rate whether
// or not earlier responses have come back, the way real traffic does. The
// entry records offered vs completed vs shed, so overload behavior is
// measured instead of inferred — a closed-loop client slows down with the
// server and never observes shedding. -min-throughput turns either mode
// into a gate: the run fails if completed throughput lands below the floor
// (CI uses it to hold the serve path at or above the recorded baseline);
// under -mixed the gate applies to the interactive tenant.
//
// Adaptive shard sizing is timed where it runs, in oracleherd's
// coordinator (perfbench's sweep-fleet workload); oracleload sends fixed
// -shard-units batches.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/service"
	"oraclesize/internal/tenant"
)

// File is the BENCH_serve.json document. Entries stay raw, so appending
// rewrites every recorded entry byte for byte, including fields no current
// mode writes.
type File struct {
	Schema  string            `json:"schema"`
	Entries []json.RawMessage `json:"entries"`
}

// Entry is one oracleload invocation.
type Entry struct {
	Label  string `json:"label"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// Mode distinguishes the request stream: "" or "run" is closed-loop
	// /v1/run, "open-loop" is /v1/run under a fixed-interval arrival clock
	// at OfferedPerSec, "shard" is /v1/shard with ShardUnits units per
	// request, "mixed" is one tenant's stream of the two-tenant isolation
	// scenario (Tenant names which).
	Mode          string  `json:"mode,omitempty"`
	Tenant        string  `json:"tenant,omitempty"`
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"`
	ShardUnits    int     `json:"shard_units,omitempty"`
	Task          string  `json:"task"`
	Family        string  `json:"family"`
	Nodes         int     `json:"nodes"`
	Seeds         int     `json:"seeds"`
	Clients       int     `json:"clients"`
	DurationSec   float64 `json:"duration_sec"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	// Shed counts capacity rejections (503, the server protecting itself);
	// Throttled counts tenant-quota rejections (429, the server protecting
	// other tenants). The distinction mirrors the service's error model.
	Shed       int64   `json:"shed"`
	Throttled  int64   `json:"throttled,omitempty"`
	Throughput float64 `json:"requests_per_sec"`
	P50NS      int64   `json:"p50_ns"`
	P90NS      int64   `json:"p90_ns"`
	P99NS      int64   `json:"p99_ns"`
	MaxNS      int64   `json:"max_ns"`
	MeanNS     int64   `json:"mean_ns"`
}

const schema = "oraclesize/serve/v1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracleload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		baseURL     = fs.String("url", "", "oracled base URL (empty: drive an in-process server)")
		clients     = fs.Int("c", 8, "concurrent closed-loop clients (with -mixed: the bulk tenant's clients)")
		dur         = fs.Duration("d", 5*time.Second, "load duration")
		task        = fs.String("task", "broadcast", "task for /v1/run requests")
		family      = fs.String("family", "random-sparse", "graph family")
		n           = fs.Int("n", 256, "graph size")
		seeds       = fs.Int("seeds", 8, "distinct instance seeds to rotate through")
		label       = fs.String("label", "current", "label for this entry")
		outPath     = fs.String("o", "BENCH_serve.json", "serve trajectory file to append to")
		shard       = fs.Bool("shard", false, "drive POST /v1/shard batches instead of /v1/run")
		shardUnits  = fs.Int("shard-units", 8, "units per shard request (with -shard)")
		scheme      = fs.String("scheme", "flooding", "scheme for shard-mode specs")
		rate        = fs.Float64("rate", 0, "open-loop offered arrival rate in req/s (0: closed-loop)")
		minTput     = fs.Float64("min-throughput", 0, "fail (exit 1) if completed req/s lands below this floor")
		noRespCache = fs.Bool("no-response-cache", false, "disable the in-process server's response cache (every request simulates; with no -url only)")
		maxInflight = fs.Int("max-inflight", 512, "open-loop cap on outstanding requests; arrivals beyond it count as errors (with -rate)")
		apiKey      = fs.String("api-key", "", "tenant API key sent as X-API-Key on every request")
		mixed       = fs.Bool("mixed", false, "two-tenant isolation scenario against an in-process multi-tenant server (see package doc)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *clients < 1 || *seeds < 1 {
		fmt.Fprintln(errOut, "oracleload: -c and -seeds must be >= 1")
		return 2
	}
	if *rate > 0 && *shard {
		fmt.Fprintln(errOut, "oracleload: -rate (open-loop) and -shard are mutually exclusive")
		return 2
	}
	if *rate > 0 && *maxInflight < 1 {
		fmt.Fprintln(errOut, "oracleload: -max-inflight must be >= 1")
		return 2
	}
	if *shard && *shardUnits < 1 {
		fmt.Fprintln(errOut, "oracleload: -shard-units must be >= 1")
		return 2
	}
	if *mixed && (*baseURL != "" || *shard || *rate > 0 || *apiKey != "") {
		fmt.Fprintln(errOut, "oracleload: -mixed is a self-contained scenario; drop -url/-shard/-rate/-api-key")
		return 2
	}
	if *mixed {
		return runMixed(mixedConfig{
			clients: *clients, dur: *dur, task: *task, family: *family, n: *n,
			seeds: *seeds, label: *label, outPath: *outPath, minTput: *minTput,
			noRespCache: *noRespCache,
		}, out, errOut)
	}

	url := *baseURL
	httpClient := http.DefaultClient
	if url == "" {
		cfg := service.Config{}
		if *noRespCache {
			cfg.ResponseCacheCapacity = -1
		}
		svc, err := service.New(cfg)
		if err != nil {
			fmt.Fprintf(errOut, "oracleload: %v\n", err)
			return 1
		}
		defer svc.Stop()
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		url = ts.URL
		httpClient = ts.Client()
	}

	// Build the rotating request bodies: /v1/run varies the instance seed,
	// /v1/shard varies the spec seed so each body compiles distinct units.
	endpoint := url + "/v1/run"
	bodies := make([][]byte, *seeds)
	type shardReq struct {
		Spec  *campaign.Spec `json:"spec"`
		Start int            `json:"start"`
		End   int            `json:"end"`
	}
	if *shard {
		endpoint = url + "/v1/shard"
		for i := range bodies {
			spec := &campaign.Spec{
				Name:     "oracleload-shard",
				Seed:     int64(i + 1),
				Trials:   *shardUnits,
				Families: []string{*family},
				Sizes:    []int{*n},
				Tasks:    []campaign.TaskSpec{{Task: *task, Schemes: []string{*scheme}}},
				Quick:    true,
			}
			if err := spec.Validate(); err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
			b, err := json.Marshal(shardReq{Spec: spec, Start: 0, End: *shardUnits})
			if err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
			bodies[i] = b
		}
	} else {
		for i := range bodies {
			b, err := json.Marshal(runRequest{Family: *family, N: *n, Seed: int64(i + 1), Task: *task})
			if err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
			bodies[i] = b
		}
	}

	post := poster(httpClient, endpoint, *apiKey)

	// Warm the instance cache so the measured window reflects steady state.
	for _, b := range bodies {
		resp, err := post(b)
		if err != nil {
			fmt.Fprintf(errOut, "oracleload: warmup: %v\n", err)
			return 1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(errOut, "oracleload: warmup request returned %d\n", resp.StatusCode)
			return 1
		}
	}

	var (
		requests  atomic.Int64
		errs      atomic.Int64
		shed      atomic.Int64
		throttled atomic.Int64
		latMu     sync.Mutex
		lats      []time.Duration
	)
	var offered int64
	if *rate > 0 {
		// Open loop: arrivals come off a fixed-interval clock regardless of
		// how earlier requests are faring — the regime where shedding is
		// observable. A late clock catches up in a burst, preserving the
		// offered average; arrivals that cannot even be issued because the
		// client is at its -max-inflight cap count as errors.
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		sem := make(chan struct{}, *maxInflight)
		var owg sync.WaitGroup
		start := time.Now()
		for i := 0; ; i++ {
			next := start.Add(time.Duration(i) * interval)
			if !next.Before(start.Add(*dur)) {
				break
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			offered++
			body := bodies[i%len(bodies)]
			select {
			case sem <- struct{}{}:
				owg.Add(1)
				go func(b []byte) {
					defer owg.Done()
					defer func() { <-sem }()
					st := time.Now()
					resp, err := post(b)
					elapsed := time.Since(st)
					requests.Add(1)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					switch classify(resp, err) {
					case outcomeOK:
						latMu.Lock()
						lats = append(lats, elapsed)
						latMu.Unlock()
					case outcomeShed:
						shed.Add(1)
					case outcomeThrottled:
						throttled.Add(1)
					default:
						errs.Add(1)
					}
				}(body)
			default:
				errs.Add(1)
			}
		}
		owg.Wait()
	} else {
		deadline := time.Now().Add(*dur)
		var wg sync.WaitGroup
		wg.Add(*clients)
		for c := 0; c < *clients; c++ {
			c := c
			go func() {
				defer wg.Done()
				local := make([]time.Duration, 0, 4096)
				for i := 0; time.Now().Before(deadline); i++ {
					start := time.Now()
					resp, err := post(bodies[(c+i)%len(bodies)])
					elapsed := time.Since(start)
					requests.Add(1)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					switch classify(resp, err) {
					case outcomeOK:
						local = append(local, elapsed)
					case outcomeShed:
						shed.Add(1)
					case outcomeThrottled:
						throttled.Add(1)
					default:
						errs.Add(1)
					}
				}
				latMu.Lock()
				lats = append(lats, local...)
				latMu.Unlock()
			}()
		}
		wg.Wait()
	}

	mode := ""
	units := 0
	if *shard {
		mode, units = "shard", *shardUnits
	}
	if *rate > 0 {
		mode = "open-loop"
	}
	entry := Entry{
		Label:       *label,
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Mode:        mode,
		ShardUnits:  units,
		Task:        *task,
		Family:      *family,
		Nodes:       *n,
		Seeds:       *seeds,
		Clients:     *clients,
		DurationSec: dur.Seconds(),
		Requests:    requests.Load(),
		Errors:      errs.Load(),
		Shed:        shed.Load(),
		Throttled:   throttled.Load(),
	}
	if !fillLatency(&entry, lats, *dur) {
		fmt.Fprintln(errOut, "oracleload: no successful requests")
		return 1
	}
	if *rate > 0 {
		entry.OfferedPerSec = *rate
		fmt.Fprintf(out, "open-loop: offered %d arrivals (%.0f/s), completed %d, shed %d, throttled %d, errors %d\n",
			offered, *rate, int64(len(lats)), entry.Shed, entry.Throttled, entry.Errors)
	}

	printEntry(out, &entry, *dur)

	if code := appendEntries(*outPath, []Entry{entry}, out, errOut); code != 0 {
		return code
	}
	if *minTput > 0 && entry.Throughput < *minTput {
		fmt.Fprintf(errOut, "oracleload: completed throughput %.0f req/s is below the %.0f req/s floor\n",
			entry.Throughput, *minTput)
		return 1
	}
	return 0
}

type runRequest struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Task   string `json:"task"`
}

// outcome is one request's classified result; every load loop feeds its
// counters exclusively through classify.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeThrottled
	outcomeError
)

// classify maps a request's result to its counter, by status code alone.
// Transport errors — including an idle connection the server closed under
// us mid-reuse — are errors, never throttles or sheds: 429 and 503 are
// statements the server made, and only a real response can make them.
// Every loop (closed-loop, open-loop, mixed) must share this mapping so
// the recorded shed/throttled split stays comparable across modes.
func classify(resp *http.Response, err error) outcome {
	if err != nil {
		return outcomeError
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return outcomeOK
	case http.StatusServiceUnavailable:
		return outcomeShed
	case http.StatusTooManyRequests:
		return outcomeThrottled
	default:
		return outcomeError
	}
}

// poster binds an endpoint and optional API key into a one-argument POST,
// so the load loops stay free of header plumbing.
func poster(c *http.Client, endpoint, key string) func([]byte) (*http.Response, error) {
	return func(body []byte) (*http.Response, error) {
		req, err := http.NewRequest("POST", endpoint, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		return c.Do(req)
	}
}

// fillLatency sorts the success latencies and fills the entry's
// throughput and percentile fields; false means nothing succeeded.
func fillLatency(e *Entry, lats []time.Duration, dur time.Duration) bool {
	if len(lats) == 0 {
		return false
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(lats)-1))
		return lats[idx].Nanoseconds()
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	e.Throughput = float64(len(lats)) / dur.Seconds()
	e.P50NS = pct(0.50)
	e.P90NS = pct(0.90)
	e.P99NS = pct(0.99)
	e.MaxNS = lats[len(lats)-1].Nanoseconds()
	e.MeanNS = (sum / time.Duration(len(lats))).Nanoseconds()
	return true
}

func printEntry(out io.Writer, e *Entry, dur time.Duration) {
	fmt.Fprintf(out, "%s: %d req in %s (%0.0f req/s ok), %d shed, %d throttled, %d errors\n",
		e.Label, e.Requests, dur, e.Throughput, e.Shed, e.Throttled, e.Errors)
	fmt.Fprintf(out, "latency p50 %s  p90 %s  p99 %s  max %s\n",
		time.Duration(e.P50NS), time.Duration(e.P90NS),
		time.Duration(e.P99NS), time.Duration(e.MaxNS))
}

// appendEntries loads (or creates) the serve trajectory file and appends
// the given entries.
func appendEntries(path string, entries []Entry, out, errOut io.Writer) int {
	doc := File{Schema: schema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(errOut, "oracleload: %s exists but is not a serve file: %v\n", path, err)
			return 1
		}
		if doc.Schema != schema {
			fmt.Fprintf(errOut, "oracleload: %s has schema %q, want %q\n", path, doc.Schema, schema)
			return 1
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintln(errOut, err)
		return 1
	}
	for _, e := range entries {
		raw, err := json.Marshal(e)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		doc.Entries = append(doc.Entries, raw)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	for _, e := range entries {
		fmt.Fprintf(out, "wrote entry %q to %s (%d entries)\n", e.Label, path, len(doc.Entries))
	}
	return 0
}

// mixedConfig carries the flag subset the -mixed scenario uses.
type mixedConfig struct {
	clients     int
	dur         time.Duration
	task        string
	family      string
	n           int
	seeds       int
	label       string
	outPath     string
	minTput     float64
	noRespCache bool
}

// tenantCounters aggregates one tenant's stream outcomes in -mixed mode.
type tenantCounters struct {
	requests, errs, shed, throttled atomic.Int64
	mu                              sync.Mutex
	lats                            []time.Duration
}

// runMixed is the two-tenant isolation scenario: an in-process
// multi-tenant server, a weight-1 rate-capped "bulk" tenant flooding with
// the full -c client pool, and a weight-8 "interactive" tenant probing
// with two clients. Isolation shows up twice: bulk's excess arrivals are
// throttled with 429s the interactive tenant never sees, and the
// weighted-fair scheduler keeps interactive latency flat under the flood.
func runMixed(cfg mixedConfig, out, errOut io.Writer) int {
	const (
		bulkKey        = "bulk-mixed-load-key"
		interactiveKey = "interactive-mixed-key"
	)
	st := tenant.NewMemStore()
	for _, sp := range []tenant.Spec{
		{Name: "bulk", Key: bulkKey, Weight: 1, RatePerSec: 2000, Burst: 2000},
		{Name: "interactive", Key: interactiveKey, Weight: 8},
	} {
		if _, err := st.PutKey(sp); err != nil {
			fmt.Fprintf(errOut, "oracleload: %v\n", err)
			return 1
		}
	}
	svcCfg := service.Config{TenantStore: st}
	if cfg.noRespCache {
		svcCfg.ResponseCacheCapacity = -1
	}
	svc, err := service.New(svcCfg)
	if err != nil {
		fmt.Fprintf(errOut, "oracleload: %v\n", err)
		return 1
	}
	defer svc.Stop()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	bodies := make([][]byte, cfg.seeds)
	for i := range bodies {
		b, err := json.Marshal(runRequest{Family: cfg.family, N: cfg.n, Seed: int64(i + 1), Task: cfg.task})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		bodies[i] = b
	}

	endpoint := ts.URL + "/v1/run"
	warm := poster(ts.Client(), endpoint, interactiveKey)
	for _, b := range bodies {
		resp, err := warm(b)
		if err != nil {
			fmt.Fprintf(errOut, "oracleload: warmup: %v\n", err)
			return 1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(errOut, "oracleload: warmup request returned %d\n", resp.StatusCode)
			return 1
		}
	}

	const interactiveClients = 2
	deadline := time.Now().Add(cfg.dur)
	var bulk, interactive tenantCounters
	var wg sync.WaitGroup
	pool := func(key string, clients int, ct *tenantCounters) {
		post := poster(ts.Client(), endpoint, key)
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := make([]time.Duration, 0, 4096)
				for i := 0; time.Now().Before(deadline); i++ {
					start := time.Now()
					resp, err := post(bodies[(c+i)%len(bodies)])
					elapsed := time.Since(start)
					ct.requests.Add(1)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					switch classify(resp, err) {
					case outcomeOK:
						local = append(local, elapsed)
					case outcomeShed:
						ct.shed.Add(1)
					case outcomeThrottled:
						ct.throttled.Add(1)
					default:
						ct.errs.Add(1)
					}
				}
				ct.mu.Lock()
				ct.lats = append(ct.lats, local...)
				ct.mu.Unlock()
			}()
		}
	}
	pool(bulkKey, cfg.clients, &bulk)
	pool(interactiveKey, interactiveClients, &interactive)
	wg.Wait()

	entries := make([]Entry, 0, 2)
	for _, tc := range []struct {
		name    string
		clients int
		ct      *tenantCounters
	}{
		{"bulk", cfg.clients, &bulk},
		{"interactive", interactiveClients, &interactive},
	} {
		e := Entry{
			Label:       cfg.label + "-" + tc.name,
			Go:          runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			Mode:        "mixed",
			Tenant:      tc.name,
			Task:        cfg.task,
			Family:      cfg.family,
			Nodes:       cfg.n,
			Seeds:       cfg.seeds,
			Clients:     tc.clients,
			DurationSec: cfg.dur.Seconds(),
			Requests:    tc.ct.requests.Load(),
			Errors:      tc.ct.errs.Load(),
			Shed:        tc.ct.shed.Load(),
			Throttled:   tc.ct.throttled.Load(),
		}
		if !fillLatency(&e, tc.ct.lats, cfg.dur) {
			fmt.Fprintf(errOut, "oracleload: tenant %s completed no requests\n", tc.name)
			return 1
		}
		printEntry(out, &e, cfg.dur)
		entries = append(entries, e)
	}
	if code := appendEntries(cfg.outPath, entries, out, errOut); code != 0 {
		return code
	}
	// The gate protects the latency-sensitive side: bulk pressure must not
	// be able to push the interactive tenant below the floor.
	if cfg.minTput > 0 && entries[1].Throughput < cfg.minTput {
		fmt.Fprintf(errOut, "oracleload: interactive throughput %.0f req/s is below the %.0f req/s floor\n",
			entries[1].Throughput, cfg.minTput)
		return 1
	}
	return 0
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// serveClients is the closed-loop client count of both serve workloads:
// enough to keep oracled's workers busy, few enough that the load
// generator and the server share a small machine without starving each
// other.
const serveClients = 2

// hotKeys is the serve-hot working set: far below oracled's response
// cache (4096 entries) and instance cache (128 entries), so after warm-up
// every timed request is a response-cache hit.
const hotKeys = 64

// coldWarmup is how many requests a serve-cold set-up sends, on seeds the
// timed window never uses, so connections and engine pools are warm.
const coldWarmup = 32

// The request mix: random families (a new seed is a new graph), two sizes
// and both of the paper's tasks under their default, paper schemes.
var (
	serveFamilies = []string{"random-sparse", "random-regular"}
	serveSizes    = []int{128, 256}
	serveTasks    = []string{"wakeup", "broadcast"}
)

type runRequest struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Task   string `json:"task"`
}

// runResponse is the part of a /v1/run answer the checks read.
type runResponse struct {
	Nodes      int    `json:"nodes"`
	Task       string `json:"task"`
	Scheme     string `json:"scheme"`
	AdviceBits int    `json:"advice_bits"`
	Messages   int    `json:"messages"`
	Complete   bool   `json:"complete"`
	CheckError string `json:"check_error"`
	WallNS     int64  `json:"wall_ns"`
}

func randomRequest(r *rand.Rand, seed int64) runRequest {
	return runRequest{
		Family: serveFamilies[r.Intn(len(serveFamilies))],
		N:      serveSizes[r.Intn(len(serveSizes))],
		Seed:   seed,
		Task:   serveTasks[r.Intn(len(serveTasks))],
	}
}

// instanceSeed gives request i of client c its own instance seed, distinct
// across clients and requests within a run and across runs' --seed.
func instanceSeed(seed int64, c, i int) int64 {
	return seed<<40 ^ int64(c)<<32 ^ int64(i)
}

// decodeRun parses and checks one /v1/run response body.
func decodeRun(req runRequest, body []byte) (runResponse, error) {
	var resp runResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decoding /v1/run response: %v", err)
	}
	if resp.Task != req.Task {
		return resp, fmt.Errorf("asked for %s, answered %s", req.Task, resp.Task)
	}
	if resp.CheckError != "" {
		return resp, fmt.Errorf("%s on %s n=%d seed=%d: %s", req.Task, req.Family, req.N, req.Seed, resp.CheckError)
	}
	return resp, checkResult(resp.Task, resp.Scheme, resp.Nodes, resp.AdviceBits, resp.Messages, resp.Complete)
}

// sameRun reports whether two /v1/run bodies agree in everything but
// wall_ns, the one field that is not a function of the request.
func sameRun(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	var x, y map[string]any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	delete(x, "wall_ns")
	delete(y, "wall_ns")
	xa, _ := json.Marshal(x)
	ya, _ := json.Marshal(y)
	return bytes.Equal(xa, ya)
}

// serveRun is the state one serve workload shares between its set-up,
// its closed-loop clients and its result.
type serveRun struct {
	b      *bench
	client *http.Client
	srv    *server
	probs  *problemList
	window int64 // span of the timed window, parent of request spans
	// execNS collects the execution time responses report, per client,
	// when tracing.
	execNS [serveClients][]float64
}

// request sends one /v1/run and returns the body of a 200 answer.
func (s *serveRun) request(body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	out, code, err := post(s.client, s.srv.url+"/v1/run", body)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(out))
	}
	return out, d, nil
}

func (s *serveRun) traceRequest(c int, start time.Time, d time.Duration, wallNS int64) {
	if s.b.trace == nil {
		return
	}
	s.b.trace.record(s.window, "POST /v1/run", start, start.Add(d), map[string]int64{"server_exec_ns": wallNS})
	s.execNS[c] = append(s.execNS[c], float64(wallNS))
}

func serveHot(b *bench) (*outcome, error) {
	r := rand.New(rand.NewSource(b.seed))
	reqs := make([]runRequest, hotKeys)
	bodies := make([][]byte, hotKeys)
	for i := range reqs {
		reqs[i] = randomRequest(r, r.Int63())
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	want := make([][]byte, hotKeys)
	s := &serveRun{b: b, client: newClient(serveClients), probs: &problemList{}}
	// Set-up is start-up plus filling the cache: one request per key.
	stop, setup, err := b.setUp(func() (func(), error) {
		srv, err := b.startOracled("oracled")
		if err != nil {
			return nil, err
		}
		s.srv = srv
		for i, body := range bodies {
			out, _, err := s.request(body)
			if err != nil {
				srv.p.stop()
				return nil, fmt.Errorf("warm-up: %v", err)
			}
			if _, err := decodeRun(reqs[i], out); err != nil {
				s.probs.add("%v", err)
			}
			want[i] = out
		}
		return srv.p.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	orders := make([][]int, serveClients)
	for c := range orders {
		orders[c] = rand.New(rand.NewSource(b.seed + int64(c) + 1)).Perm(hotKeys)
	}
	before, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	window := b.trace.begin(0, "timed window")
	s.window = window.id()
	done, attempted, failed := closedLoop(serveClients, b.dur, func(c, i int) (time.Duration, error) {
		k := orders[c][i%hotKeys]
		start := time.Now()
		out, d, err := s.request(bodies[k])
		if err != nil {
			return d, err
		}
		if !sameRun(out, want[k]) {
			s.probs.add("key %d: response differs from its first answer", k)
		}
		if s.b.trace != nil {
			var resp runResponse
			if err := json.Unmarshal(out, &resp); err == nil {
				s.traceRequest(c, start, d, resp.WallNS)
			}
		}
		return d, nil
	})
	b.trace.end(window, nil)
	after, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	return s.outcome(done, attempted, failed, setup, delta(before, after), false), nil
}

func serveCold(b *bench) (*outcome, error) {
	s := &serveRun{b: b, client: newClient(serveClients), probs: &problemList{}}
	// Set-up is start-up plus a few requests on seeds the window never
	// uses (client index 255).
	stop, setup, err := b.setUp(func() (func(), error) {
		srv, err := b.startOracled("oracled")
		if err != nil {
			return nil, err
		}
		s.srv = srv
		r := rand.New(rand.NewSource(b.seed))
		for i := 0; i < coldWarmup; i++ {
			req := randomRequest(r, instanceSeed(b.seed, 255, i))
			body, err := json.Marshal(req)
			if err != nil {
				srv.p.stop()
				return nil, err
			}
			out, _, err := s.request(body)
			if err != nil {
				srv.p.stop()
				return nil, fmt.Errorf("warm-up: %v", err)
			}
			if _, err := decodeRun(req, out); err != nil {
				s.probs.add("%v", err)
			}
		}
		return srv.p.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	rngs := make([]*rand.Rand, serveClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(b.seed*1000 + int64(c)))
	}
	before, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	window := b.trace.begin(0, "timed window")
	s.window = window.id()
	done, attempted, failed := closedLoop(serveClients, b.dur, func(c, i int) (time.Duration, error) {
		req := randomRequest(rngs[c], instanceSeed(b.seed, c, i))
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		out, d, err := s.request(body)
		if err != nil {
			return d, err
		}
		resp, err := decodeRun(req, out)
		if err != nil {
			s.probs.add("%v", err)
		}
		s.traceRequest(c, start, d, resp.WallNS)
		return d, nil
	})
	b.trace.end(window, nil)
	after, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	return s.outcome(done, attempted, failed, setup, delta(before, after), true), nil
}

// outcome assembles a serve workload's result. executes says whether the
// timed requests ran simulations (serve-cold) or replayed cached answers
// (serve-hot), which decides whether reported execution times count.
func (s *serveRun) outcome(done []sample, attempted, failed int64, setup float64, d promSample, executes bool) *outcome {
	out := &outcome{
		attempted: attempted,
		failed:    failed,
		problems:  s.probs.all(),
		endToEnd:  slicedMetrics(done, s.b.dur, setup),
	}
	if s.b.trace == nil {
		return out
	}
	lat := make([]float64, len(done))
	for i, d := range done {
		lat[i] = d.lat
	}
	var exec []float64
	if executes {
		for c := range s.execNS {
			exec = append(exec, s.execNS[c]...)
		}
	}
	out.perLayer = serverLayers(d, `endpoint="/v1/run"`)
	serverMS := out.perLayer["server_ms_mean"].Value
	execMS := mean(exec) / 1e6
	out.perLayer["client_overhead_ms_mean"] = metric{mean(lat)*1e3 - serverMS, "ms"}
	out.perLayer["exec_ms_mean"] = metric{execMS, "ms"}
	out.perLayer["server_other_ms_mean"] = metric{serverMS - execMS - out.perLayer["queue_wait_ms_mean"].Value, "ms"}
	out.perLayer["shards_per_campaign"] = metric{0, "count"}
	out.perLayer["shard_units_mean"] = metric{0, "count"}
	return out
}

// serverLayers derives the oracled-side per-layer metrics from a /metrics
// delta over the timed window; endpoint selects the request histogram.
func serverLayers(d promSample, endpoint string) map[string]metric {
	hits, misses := d["oracled_response_cache_hits_total"], d["oracled_response_cache_misses_total"]
	ihits, imisses := d["oracled_instance_cache_hits_total"], d["oracled_instance_cache_misses_total"]
	jobs, batches := d["oracled_dispatch_jobs_total"], d["oracled_dispatch_batches_total"]
	count := d["oracled_request_duration_seconds_count{"+endpoint+"}"]
	secs := d["oracled_request_duration_seconds_sum{"+endpoint+"}"]
	queue := d[`oracled_tenant_usage_queue_seconds_total{tenant="anonymous"}`]
	return map[string]metric{
		"resp_cache_hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"instance_cache_hit_ratio": {ratio(ihits, ihits+imisses), "ratio"},
		"server_ms_mean":           {ratio(secs, count) * 1e3, "ms"},
		"queue_wait_ms_mean":       {ratio(queue, jobs) * 1e3, "ms"},
		"batch_jobs_mean":          {ratio(jobs, batches), "count"},
		"executed_jobs":            {jobs, "count"},
		"shed":                     {d["oracled_shed_total"], "count"},
	}
}

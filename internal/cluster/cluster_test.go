package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/membership"
	"oraclesize/internal/service"
)

var wallRe = regexp.MustCompile(`"wall_ns":\d+`)

func stripWall(jsonl []byte) string {
	return wallRe.ReplaceAllString(string(jsonl), `"wall_ns":0`)
}

// localRun produces the single-machine reference artifact the distributed
// merge must match byte for byte (modulo wall_ns).
func localRun(t *testing.T, spec *campaign.Spec, done map[string]bool) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := campaign.NewSink(&buf)
	if _, err := campaign.Run(spec, sink, campaign.RunOptions{Workers: 4, Done: done}); err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return &buf
}

// newWorkerServer starts a real oracled handler behind httptest, optionally
// wrapped to inject faults.
func newWorkerServer(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// fakeClock is a manually advanced Clock for tests that assert backoff,
// breaker and hedge timing without sleeping. Its timers never fire — the
// tests that use it drive the worker state machine synchronously.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) NewTimer(time.Duration) Timer { return fakeTimer{} }

type fakeTimer struct{}

func (fakeTimer) C() <-chan time.Time { return nil } // never fires
func (fakeTimer) Stop() bool          { return true }

// fastConfig keeps retry/breaker timing test-sized.
func fastConfig(workers ...string) Config {
	return Config{
		Workers:          workers,
		MinShardSize:     5,
		MaxShardSize:     5,
		Slots:            1,
		LeaseTimeout:     30 * time.Second,
		HedgeAfter:       -1, // tests opt in explicitly
		MaxAttempts:      8,
		BackoffBase:      time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	}
}

// joinAs is the join request a worker of the coordinator's build sends
// from url.
func joinAs(url string) membership.JoinRequest {
	return membership.JoinRequest{ID: url, Fingerprint: catalog.Fingerprint()}
}

// unitSpec is a spec of the given number of units: one task, one scheme,
// one instance per trial.
func unitSpec(units int) *campaign.Spec {
	return &campaign.Spec{Name: "units", Seed: 1, Trials: units, Families: []string{"path"}, Sizes: []int{8},
		Tasks: []campaign.TaskSpec{{Task: "wakeup", Schemes: []string{"tree"}}}}
}

// newQuick builds a coordinator for the quick spec merging into a
// discarded JSONL sink, for tests that only look at the fleet.
func newQuick(cfg Config) (*Coordinator, error) {
	return New(cfg, campaign.QuickSpec(), campaign.NewSink(io.Discard), nil)
}

func TestDistributedMatchesLocal(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newWorkerServer(t, nil).URL)
	}
	var buf bytes.Buffer
	c, err := New(fastConfig(urls...), spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("distributed artifact differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	units := len(spec.Units())
	wantShards := (units + 4) / 5
	if stats.Units != units || stats.Shards != wantShards || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want %d units in %d shards", stats, units, wantShards)
	}
	var completed int64
	for _, n := range stats.WorkerShards {
		completed += n
	}
	if completed != int64(wantShards) {
		t.Fatalf("worker completions sum to %d, want %d: %v", completed, wantShards, stats.WorkerShards)
	}
}

// TestAdaptiveDistributedMatchesLocal runs the adaptive controller over a
// real two-worker httptest fleet: whatever sizes it picks, the merged
// artifact must match the single-machine run and the sizes must respect
// the configured ceiling.
func TestAdaptiveDistributedMatchesLocal(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	urls := []string{newWorkerServer(t, nil).URL, newWorkerServer(t, nil).URL}
	cfg := fastConfig(urls...)
	cfg.MinShardSize = 2
	cfg.MaxShardSize = 16
	cfg.TargetShardDuration = 50 * time.Millisecond
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("adaptive distributed run: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("adaptive artifact differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	if stats.Shards == 0 || stats.ShardSizeMax > 16 || stats.ShardSizeMin < 1 {
		t.Fatalf("implausible adaptive sizing stats: %+v", stats)
	}
	if stats.Units != len(spec.Units()) || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want %d units, 0 skipped", stats, len(spec.Units()))
	}
}

// TestTwoCoordinatorsShareWorkers runs two campaigns at once over the same
// workers, as two oracleherd processes at -slots 1 and -slots 3 do: each
// merged artifact must still equal its own local run. The throughput
// split depends on timing, so it is logged, not asserted.
func TestTwoCoordinatorsShareWorkers(t *testing.T) {
	urls := []string{newWorkerServer(t, nil).URL, newWorkerServer(t, nil).URL}
	type job struct {
		spec  *campaign.Spec
		coord *Coordinator
		buf   bytes.Buffer
		sink  *campaign.Sink
		err   error
	}
	runs := make([]*job, 2)
	for i, slots := range []int{1, 3} {
		r := &job{spec: campaign.QuickSpec()}
		r.spec.Seed = int64(i + 1)
		r.sink = campaign.NewSink(&r.buf)
		cfg := fastConfig(urls...)
		cfg.MinShardSize, cfg.MaxShardSize = 2, 2
		cfg.Slots = slots
		c, err := New(cfg, r.spec, r.sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.coord = c
		runs[i] = r
	}

	var wg sync.WaitGroup
	var first sync.Once
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r.err = r.coord.Run(context.Background())
			first.Do(func() {
				t.Logf("campaign %d finished first; records merged then: %d at 1 slot, %d at 3 slots",
					i, runs[0].sink.Written(), runs[1].sink.Written())
			})
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("campaign %d: %v", i, r.err)
		}
		if want := localRun(t, r.spec, nil); stripWall(r.buf.Bytes()) != stripWall(want.Bytes()) {
			t.Errorf("campaign %d: merged artifact differs from its local run", i)
		}
	}
}

func TestResumeSkipsDoneUnits(t *testing.T) {
	spec := campaign.QuickSpec()
	units := spec.Units()
	done := make(map[string]bool)
	for _, u := range units[:10] {
		done[u.Key()] = true
	}
	want := localRun(t, spec, done)

	ts := newWorkerServer(t, nil)
	var buf bytes.Buffer
	c, err := New(fastConfig(ts.URL), spec, campaign.NewSink(&buf), done)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if stats.Skipped != 10 {
		t.Fatalf("Skipped = %d, want 10", stats.Skipped)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("resumed distributed artifact differs from local resumed run")
	}
}

// TestWorkerKilledMidCampaign is the fleet-failure scenario: three workers,
// one dies while holding a lease. The coordinator must requeue its shard,
// reassign it to a surviving worker, and still produce the single-machine
// artifact.
func TestWorkerKilledMidCampaign(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	var (
		dead    atomic.Bool
		started = make(chan struct{})
		once    sync.Once
		gate    = make(chan struct{})
	)
	victim := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				once.Do(func() { close(started) })
				<-gate // hold the lease until the test kills the worker
				if dead.Load() {
					http.Error(w, "dying", http.StatusInternalServerError)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	survivors := []*httptest.Server{newWorkerServer(t, nil), newWorkerServer(t, nil)}

	var buf bytes.Buffer
	cfg := fastConfig(victim.URL, survivors[0].URL, survivors[1].URL)
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		dead.Store(true)
		close(gate)
		victim.CloseClientConnections()
		victim.Close()
	}()

	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run with killed worker: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("artifact after worker death differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	if stats.Retries == 0 {
		t.Fatalf("stats.Retries = 0, want at least one requeue; stats = %+v", stats)
	}
	if stats.Reassignments == 0 {
		t.Fatalf("stats.Reassignments = 0, want the dead worker's shard on a survivor; stats = %+v", stats)
	}
	if n := stats.WorkerShards[victim.URL]; n != 0 {
		t.Fatalf("dead worker completed %d shards, want 0", n)
	}

	// The Prometheus page must report the recovery.
	rec := httptest.NewRecorder()
	c.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, metric := range []string{
		"oracleherd_retries_total",
		"oracleherd_reassignments_total",
		"oracleherd_hedges_total",
		"oracleherd_dedup_dropped_records_total",
		"oracleherd_worker_up",
		"oracleherd_breaker_open",
		"oracleherd_worker_shards_total",
		"oracleherd_shard_duration_seconds_bucket",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("metrics page missing %s:\n%s", metric, body)
		}
	}
	for _, counter := range []string{"oracleherd_retries_total", "oracleherd_reassignments_total"} {
		if v := scrapeValue(t, body, counter); v < 1 {
			t.Fatalf("%s = %g, want >= 1", counter, v)
		}
	}
}

// scrapeValue pulls a single un-labelled sample out of a Prometheus text
// page.
func scrapeValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func TestRetriesShedWorker(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	// The worker sheds its first two shard requests the way oracled does
	// under backpressure: 503 plus Retry-After. Both land on the first
	// shard, and a shed spends none of its two attempts.
	var calls atomic.Int64
	ts := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" && calls.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				http.Error(w, "queue full", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	cfg := fastConfig(ts.URL)
	cfg.BreakerThreshold = 5 // stay below the breaker so plain retry drives recovery
	cfg.MaxAttempts = 2
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run against shedding worker: %v", err)
	}
	if stats.Retries != 2 {
		t.Fatalf("stats.Retries = %d, want 2", stats.Retries)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("artifact after shed retries differs from local run")
	}
}

func TestRetryAfterOverridesBackoff(t *testing.T) {
	cfg := fastConfig("http://unused")
	cfg.Clock = newFakeClock()
	cfg = cfg.withDefaults()
	w := newWorker("http://unused", &cfg, newMetrics(), newLockedRand(1))
	w.fail(&DispatchError{Status: 503, RetryAfter: time.Hour, Err: fmt.Errorf("shed")})
	wait, ok := w.gate()
	if ok {
		t.Fatal("gate open immediately after a Retry-After: 3600 failure")
	}
	// Jitter maps the hint to [30m, 60m); anything over the plain backoff
	// ceiling proves the hint won.
	if wait < 30*time.Minute || wait >= time.Hour {
		t.Fatalf("gate wait = %v, want a delay in [30m, 1h)", wait)
	}
	w.ok()
	if _, ok := w.gate(); !ok {
		t.Fatal("gate still closed after success reset")
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	clock := newFakeClock()
	cfg := fastConfig("http://unused")
	cfg.BreakerCooldown = 20 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.Clock = clock
	cfg = cfg.withDefaults()
	w := newWorker("http://unused", &cfg, newMetrics(), newLockedRand(1))

	for i := 0; i < cfg.BreakerThreshold; i++ {
		w.fail(fmt.Errorf("boom"))
	}
	if !w.breakerOpen() {
		t.Fatal("breaker closed after threshold consecutive failures")
	}
	clock.Advance(cfg.BreakerCooldown + cfg.BackoffMax)
	if w.breakerOpen() {
		t.Fatal("breaker still open after cooldown")
	}
	// Half-open admits exactly one trial until it resolves.
	if _, ok := w.gate(); !ok {
		t.Fatal("half-open breaker refused the trial dispatch")
	}
	if _, ok := w.gate(); ok {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	w.ok()
	if _, ok := w.gate(); !ok {
		t.Fatal("breaker not closed by a successful trial")
	}
}

// TestBreakerReopensOnFailedTrial drives the half-open path to a failed
// trial on the fake clock: the breaker must re-open for a full cooldown.
func TestBreakerReopensOnFailedTrial(t *testing.T) {
	clock := newFakeClock()
	cfg := fastConfig("http://unused")
	cfg.BreakerCooldown = time.Minute
	cfg.Clock = clock
	cfg = cfg.withDefaults()
	w := newWorker("http://unused", &cfg, newMetrics(), newLockedRand(1))

	for i := 0; i < cfg.BreakerThreshold; i++ {
		w.fail(fmt.Errorf("boom"))
	}
	clock.Advance(cfg.BreakerCooldown + cfg.BackoffMax)
	if _, ok := w.gate(); !ok {
		t.Fatal("half-open breaker refused the trial dispatch")
	}
	w.fail(fmt.Errorf("trial failed"))
	if !w.breakerOpen() {
		t.Fatal("breaker closed after a failed half-open trial")
	}
	wait, ok := w.gate()
	if ok {
		t.Fatal("gate open right after a failed half-open trial")
	}
	if wait <= 0 || wait > cfg.BreakerCooldown {
		t.Fatalf("gate wait = %v, want a cooldown-scale delay", wait)
	}
}

// TestBackoffJitterBounds is the backoff-schedule table: after k
// consecutive failures the gate delay must land in [b/2, b) where
// b = min(BackoffBase << (k-1), BackoffMax) — exact bounds, no sleeping,
// thanks to the injectable clock.
func TestBackoffJitterBounds(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	cases := []struct {
		fails int
		want  time.Duration // pre-jitter backoff
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{6, 3200 * time.Millisecond},
		{7, 5 * time.Second}, // 6.4s clamps to BackoffMax
		{8, 5 * time.Second},
		{40, 5 * time.Second}, // shift saturation must not overflow
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			clock := newFakeClock()
			cfg := fastConfig("http://unused")
			cfg.BackoffBase, cfg.BackoffMax = base, max
			cfg.BreakerThreshold = 1 << 20 // keep the breaker out of the schedule
			cfg.Clock = clock
			cfg = cfg.withDefaults()
			w := newWorker("http://unused", &cfg, newMetrics(), newLockedRand(seed))
			for i := 0; i < tc.fails; i++ {
				w.fail(fmt.Errorf("boom"))
			}
			wait, ok := w.gate()
			if ok {
				t.Fatalf("fails=%d seed=%d: gate open immediately after failure", tc.fails, seed)
			}
			if wait < tc.want/2 || wait >= tc.want {
				t.Errorf("fails=%d seed=%d: wait %v outside jitter bounds [%v, %v)",
					tc.fails, seed, wait, tc.want/2, tc.want)
			}
			// The delay elapses exactly on the virtual clock.
			clock.Advance(wait)
			if _, ok := w.gate(); !ok {
				t.Errorf("fails=%d seed=%d: gate still closed after advancing %v", tc.fails, seed, wait)
			}
		}
	}
}

// TestHedgedStraggler forces a slow first lease so the idle second worker
// hedges it; the run must finish fast with the winner's records.
func TestHedgedStraggler(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	var calls atomic.Int64
	slow := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" && calls.Add(1) == 1 {
				// net/http cancels r.Context() when the client goes away
				// only once the handler has read the whole body.
				body, err := io.ReadAll(r.Body)
				if err != nil {
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				select { // straggle, but honor cancellation
				case <-time.After(10 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	fast := newWorkerServer(t, nil)

	cfg := fastConfig(slow.URL, fast.URL)
	cfg.MinShardSize, cfg.MaxShardSize = 16, 16 // two shards: one straggles, one runs normally
	cfg.HedgeAfter = 30 * time.Millisecond
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged run took %v; the straggler's lease was waited out", elapsed)
	}
	if stats.Hedges == 0 {
		t.Fatalf("stats.Hedges = 0, want the straggling shard re-dispatched; stats = %+v", stats)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("hedged artifact differs from local run")
	}
}

// TestHedgeFirstResultWins drives the lease ledger directly: both the hedge
// winner and the original holder deliver the shard, and the sink keeps only
// the first result.
func TestHedgeFirstResultWins(t *testing.T) {
	var buf bytes.Buffer
	sink := campaign.NewSink(&buf)
	cfg := fastConfig("http://a", "http://b")
	cfg.Clock = newFakeClock()
	cfg = cfg.withDefaults()
	st := newRunState(&cfg, newMetrics(), 2, unitSpec(1), []bool{false}, sink)
	wA := &worker{url: "http://a"}
	wB := &worker{url: "http://b"}

	s, hedge := st.acquire(wA, -1)
	if s == nil || hedge {
		t.Fatalf("acquire(wA) = (%v, %v), want fresh lease", s, hedge)
	}
	hs, hedge := st.acquire(wB, 0)
	if hs != s || !hedge {
		t.Fatalf("acquire(wB) = (%v, %v), want hedge of the in-flight shard", hs, hedge)
	}
	if again, _ := st.acquire(wA, 0); again != nil {
		t.Fatalf("holder re-acquired its own shard as a hedge")
	}

	winner := []campaign.Record{{Kind: "task", Unit: "u", Scheme: "winner"}}
	loser := []campaign.Record{{Kind: "task", Unit: "u", Scheme: "loser"}}
	if first, live, err := st.complete(s, wB, [][]campaign.Record{winner}); err != nil || !first || !live {
		t.Fatalf("winner complete = (%v, %v, %v), want live first delivery", first, live, err)
	}
	if first, live, err := st.complete(s, wA, [][]campaign.Record{loser}); err != nil || first || !live {
		t.Fatalf("loser complete = (%v, %v, %v), want live non-first delivery", first, live, err)
	}
	if sink.Deduped() != 1 || sink.Written() != 1 {
		t.Fatalf("sink deduped %d written %d, want 1 and 1", sink.Deduped(), sink.Written())
	}
	if wB.completions.Load() != 1 || wA.completions.Load() != 0 {
		t.Fatalf("completions = (A=%d, B=%d), want the hedge winner credited", wA.completions.Load(), wB.completions.Load())
	}
	if !strings.Contains(buf.String(), `"winner"`) || strings.Contains(buf.String(), `"loser"`) {
		t.Fatalf("sink kept the wrong result: %s", buf.String())
	}
	if !st.finished() {
		t.Fatal("run not finished after its only shard completed")
	}
}

func TestProbeRejectsCatalogSkew(t *testing.T) {
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status":              "ok",
			"catalog_fingerprint": "deadbeefdeadbeef",
		})
	}))
	defer skewed.Close()

	c, err := newQuick(fastConfig(skewed.URL))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Probe = %v, want catalog fingerprint mismatch", err)
	}
}

// TestSkewedFounderGetsNoLeases: a -workers founder that is down at launch
// escapes Probe, so the run probes it again before its first lease. This
// one answers its first /healthz with 503, then reports a foreign catalog
// fingerprint while serving shards correctly: it must be dropped with a
// log line and take no shard, and the healthy worker finishes the run.
func TestSkewedFounderGetsNoLeases(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	var probes, shards atomic.Int64
	skewed := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz":
				if probes.Add(1) == 1 {
					http.Error(w, "starting", http.StatusServiceUnavailable)
					return
				}
				json.NewEncoder(w).Encode(map[string]any{"status": "ok", "catalog_fingerprint": "deadbeefdeadbeef"})
				return
			case "/v1/shard":
				shards.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	// The healthy worker is slowed so the run outlasts the founder's
	// launch backoff many times over.
	healthy := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				time.Sleep(20 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	})

	var (
		mu   sync.Mutex
		logs []string
	)
	cfg := fastConfig(healthy.URL, skewed.URL)
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("artifact differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	if n := shards.Load(); n != 0 || stats.WorkerShards[skewed.URL] != 0 {
		t.Fatalf("skewed founder served %d shards (stats %d), want 0", n, stats.WorkerShards[skewed.URL])
	}
	mu.Lock()
	defer mu.Unlock()
	drop := "cluster: worker " + skewed.URL + " dropped: membership: " + skewed.URL +
		" catalog fingerprint deadbeefdeadbeef != coordinator " + catalog.Fingerprint()
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.HasPrefix(l, drop) }) {
		t.Fatalf("no %q line in:\n%s", drop, strings.Join(logs, "\n"))
	}
}

// TestProbeRequiresOneWorkerUp: a fleet with no reachable worker fails
// Probe; one live worker is enough, and a dead one beside it is charged
// one failure, so the run retries it once BackoffBase has passed.
func TestProbeRequiresOneWorkerUp(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	dead := ts.URL
	ts.Close() // a closed port refuses at once

	c, err := newQuick(fastConfig(dead))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err == nil || !strings.Contains(err.Error(), "no worker") {
		t.Fatalf("Probe = %v, want no-worker error", err)
	}

	clock := newFakeClock()
	cfg := fastConfig(newWorkerServer(t, nil).URL, dead)
	cfg.Clock = clock
	if c, err = newQuick(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err != nil {
		t.Fatalf("Probe with one live worker: %v", err)
	}
	if _, ok := c.core.Gate(0); !ok {
		t.Fatal("live worker's gate closed after Probe")
	}
	wait, ok := c.core.Gate(1)
	if ok || wait <= 0 || wait > cfg.BackoffBase {
		t.Fatalf("dead worker's gate = (%v, %v), want closed for at most BackoffBase %v", wait, ok, cfg.BackoffBase)
	}
	clock.Advance(cfg.BackoffBase)
	if _, ok := c.core.Gate(1); !ok {
		t.Fatal("dead worker's gate still closed after BackoffBase")
	}
}

func TestRunFailsAfterMaxAttempts(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(map[string]any{"status": "ok", "catalog_fingerprint": catalog.Fingerprint()})
			return
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer broken.Close()

	cfg := fastConfig(broken.URL)
	cfg.MaxAttempts = 2
	cfg.BreakerThreshold = 10 // let plain retries exhaust the budget
	c, err := newQuick(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("Run = %v, want attempt-budget failure", err)
	}
	// A Coordinator drives one run: a second Run fails instead of picking
	// the failed run back up.
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "called twice") {
		t.Fatalf("second Run = %v, want the single-run error", err)
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := newQuick(Config{}); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
	if _, err := newQuick(Config{Workers: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("New accepted duplicate worker URLs")
	}
}

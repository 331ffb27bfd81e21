package membership_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/catalog"
	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
)

// serve starts the fleet endpoint for srv.
func serve(t *testing.T, srv *membership.Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	srv.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// post sends a raw JSON body and returns the response body after checking
// its status.
func post(t *testing.T, url, body string, wantStatus int) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, got)
	}
	return string(got)
}

// TestServerEndpoints pins the fleet endpoint's wire bytes: requests,
// acks, status codes and the GET /v1/fleet body.
func TestServerEndpoints(t *testing.T) {
	srv := &membership.Server{
		Fleet: newFleet(t, cluster.Config{Clock: newClock()}),
		Advise: func() membership.Advice {
			return membership.Advice{BacklogUnits: 120, UnitSeconds: 0.5, TargetSeconds: 30, RecommendedWorkers: 2}
		},
	}
	ts := serve(t, srv)
	fp := catalog.Fingerprint()
	row := func(queue int, unitSec float64, beats int) string {
		return fmt.Sprintf(`{"id":"http://w1","catalog_fingerprint":"%s",`+
			`"build":{"go_version":"go1.22.0","module_version":"(devel)","vcs_revision":"abc123"},`+
			`"queue_depth":%d,"unit_seconds":%v,"status":"active",`+
			`"joined_at":"1970-01-01T00:16:40Z","last_seen":"1970-01-01T00:16:40Z","heartbeats":%d}`,
			fp, queue, unitSec, beats)
	}

	join := func(queue int, unitSec float64) string {
		return fmt.Sprintf(`{"id":"http://w1","catalog_fingerprint":"%s",`+
			`"build":{"go_version":"go1.22.0","module_version":"(devel)","vcs_revision":"abc123"},`+
			`"queue_depth":%d,"unit_seconds":%v}`, fp, queue, unitSec)
	}

	got := post(t, ts.URL+"/v1/fleet/join", join(0, 0), http.StatusOK)
	if want := row(0, 0, 0) + "\n"; got != want {
		t.Fatalf("join ack:\n got %s\nwant %s", got, want)
	}
	// Catalog skew is a 409 — the agent treats it as fatal.
	post(t, ts.URL+"/v1/fleet/join", `{"id":"http://w2","catalog_fingerprint":"other"}`, http.StatusConflict)
	post(t, ts.URL+"/v1/fleet/join", `{"id":"http://w2","bogus":1}`, http.StatusBadRequest)
	// Workers that still report a tenant-policy generation (the removed
	// coordinator push) are refused with the field named.
	if got := post(t, ts.URL+"/v1/fleet/join", `{"id":"http://w2","catalog_fingerprint":"`+fp+
		`","tenant_generation":3}`, http.StatusBadRequest); !strings.Contains(got, `unknown field \"tenant_generation\"`) {
		t.Fatalf("join with tenant_generation: %s", got)
	}

	// A live member's re-join is its heartbeat: the ack carries the
	// refreshed signals and counts the beat.
	got = post(t, ts.URL+"/v1/fleet/join", join(3, 0.5), http.StatusOK)
	if want := row(3, 0.5, 1) + "\n"; got != want {
		t.Fatalf("re-join ack:\n got %s\nwant %s", got, want)
	}
	// There is no heartbeat endpoint; an older agent answers this 404 by
	// re-joining.
	post(t, ts.URL+"/v1/fleet/heartbeat", `{"id":"http://w1","queue_depth":3,"unit_seconds":0.5}`, http.StatusNotFound)

	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET /v1/fleet: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"members":[` + row(3, 0.5, 1) + `],"advice":{"backlog_units":120,"unit_seconds":0.5,"target_seconds":30,"recommended_workers":2}}` + "\n"
	if string(body) != want {
		t.Fatalf("GET /v1/fleet:\n got %s\nwant %s", body, want)
	}

	var buf strings.Builder
	srv.WriteMetrics(&buf)
	for _, want := range []string{
		"oracleherd_fleet_members 1",
		"oracleherd_fleet_joins_total 1",
		"oracleherd_fleet_evictions_total 0",
		"oracleherd_fleet_recommended_workers 2",
		"oracleherd_fleet_backlog_units 120",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}

	if got := post(t, ts.URL+"/v1/fleet/leave", `{"id":"http://w1"}`, http.StatusOK); got != `{"left":true}`+"\n" {
		t.Fatalf("leave ack = %s", got)
	}
	if got := post(t, ts.URL+"/v1/fleet/leave", `{"id":"http://w1"}`, http.StatusOK); got != `{"left":false}`+"\n" {
		t.Fatalf("second leave ack = %s", got)
	}
}

// TestAgentLifecycle runs a real Agent against a real coordinator's fleet
// endpoint: it must join, re-join on every tick with the Report signals
// (its heartbeat), register again after a Sweep evicts it, and deregister
// on Leave.
func TestAgentLifecycle(t *testing.T) {
	clk := newClock()
	fleet := newFleet(t, cluster.Config{Clock: clk, Client: probes{}.client()})
	ts := serve(t, &membership.Server{Fleet: fleet})

	ag := &membership.Agent{
		Coordinator: ts.URL,
		ID:          "http://worker-1",
		Fingerprint: catalog.Fingerprint(),
		Interval:    5 * time.Millisecond,
		Report:      func() membership.Heartbeat { return membership.Heartbeat{QueueDepth: 4, UnitSeconds: 0.125} },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ag.Run(ctx) }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitFor("join + first heartbeat", func() bool {
		ms := fleet.Members()
		return len(ms) == 1 && ms[0].Heartbeats >= 1 && ms[0].QueueDepth == 4
	})

	// Evict it behind the agent's back: its /healthz is unreachable, so a
	// sweep past the TTL evicts it (a re-join landing between the advance
	// and the sweep restarts the TTL, hence the retry). The agent's next
	// join must register it again.
	waitFor("a Sweep eviction", func() bool {
		clk.Advance(11 * time.Second)
		fleet.Sweep(ctx)
		_, _, evictions := fleet.Counters()
		return evictions == 1
	})
	waitFor("automatic re-join after eviction", func() bool {
		joins, _, _ := fleet.Counters()
		return joins == 2 && len(fleet.Members()) == 1
	})

	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if err := ag.Leave(context.Background()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if ms := fleet.Members(); len(ms) != 0 {
		t.Fatalf("members after Leave = %+v", ms)
	}
	if _, leaves, _ := fleet.Counters(); leaves != 1 {
		t.Fatalf("leaves = %d, want 1", leaves)
	}
}

// TestAgentConflictIsFatal: a fingerprint-skewed worker must not retry
// forever — Run returns the 409 as a hard error.
func TestAgentConflictIsFatal(t *testing.T) {
	ts := serve(t, &membership.Server{Fleet: newFleet(t, cluster.Config{})})
	ag := &membership.Agent{Coordinator: ts.URL, ID: "http://w", Fingerprint: "stale", Interval: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ag.Run(ctx); err == nil || !strings.Contains(err.Error(), "status 409") {
		t.Fatalf("Run = %v, want 409 conflict error", err)
	}
}

// TestProbeWorker drives the pre-eviction /healthz probe over real HTTP:
// an "ok" answer holds a silent member one more TTL, "draining" holds it
// for its Retry-After, no answer evicts it, and every probe carries the
// coordinator's API key.
func TestProbeWorker(t *testing.T) {
	var mu sync.Mutex
	status, retryAfter, keys := "ok", "", map[string]int{}
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		keys[r.Header.Get("X-API-Key")]++
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		json.NewEncoder(w).Encode(map[string]string{"status": status})
	}))
	defer worker.Close()
	clk := newClock()
	fleet := newFleet(t, cluster.Config{Clock: clk, APIKey: "probe-key-0001"})
	if _, err := fleet.Join(joinAs(worker.URL, membership.Heartbeat{})); err != nil {
		t.Fatal(err)
	}
	sweepAfter := func(d time.Duration) []membership.Member {
		clk.Advance(d)
		fleet.Sweep(context.Background())
		return fleet.Members()
	}

	if ms := sweepAfter(11 * time.Second); len(ms) != 1 || ms[0].Status != membership.StatusActive {
		t.Fatalf("members after an ok probe = %+v, want one active", ms)
	}
	mu.Lock()
	status, retryAfter = "draining", "45"
	mu.Unlock()
	if ms := sweepAfter(11 * time.Second); len(ms) != 1 || ms[0].Status != membership.StatusDraining {
		t.Fatalf("members after a draining probe = %+v, want one draining", ms)
	}
	if ms := sweepAfter(40 * time.Second); len(ms) != 1 {
		t.Fatal("draining member evicted inside its 45s Retry-After grace")
	}
	worker.Close()
	if ms := sweepAfter(6 * time.Second); len(ms) != 0 {
		t.Fatalf("members after an unanswered probe = %+v, want none", ms)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 1 || keys["probe-key-0001"] != 2 {
		t.Fatalf("probes by API key = %v, want 2 carrying the coordinator's", keys)
	}
}

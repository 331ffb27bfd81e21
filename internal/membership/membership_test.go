package membership_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
)

// The fleet table these tests drive is the coordinator's own
// (cluster.Coordinator implements membership.Fleet), built on a manual
// clock with /healthz probes answered by a probes RoundTripper, so no
// test touches the network unless it starts its own httptest worker.

// fakeClock is a manually advanced cluster.Clock whose timers never fire;
// no test here calls Run.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0).UTC()} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) NewTimer(time.Duration) cluster.Timer { return idleTimer{} }

type idleTimer struct{}

func (idleTimer) C() <-chan time.Time { return nil }
func (idleTimer) Stop() bool          { return true }

// probes answers the coordinator's /healthz probes, keyed by worker URL:
// the status a worker reports plus its Retry-After header. A worker with
// no entry is unreachable.
type probes map[string]probe

type probe struct{ status, retryAfter string }

func (p probes) RoundTrip(req *http.Request) (*http.Response, error) {
	a, ok := p[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, errors.New("connection refused")
	}
	header := http.Header{}
	if a.retryAfter != "" {
		header.Set("Retry-After", a.retryAfter)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     header,
		Body:       io.NopCloser(strings.NewReader(`{"status":"` + a.status + `"}`)),
		Request:    req,
	}, nil
}

func (p probes) client() *http.Client { return &http.Client{Transport: p} }

// newFleet builds an elastic coordinator for the quick spec with no
// founders and the default 10s member TTL.
func newFleet(t *testing.T, cfg cluster.Config) *cluster.Coordinator {
	t.Helper()
	cfg.Elastic = true
	c, err := cluster.New(cfg, campaign.QuickSpec(), campaign.NewSink(io.Discard), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// joinAs is the join request a worker of the coordinator's build sends.
func joinAs(id string, hb membership.Heartbeat) membership.JoinRequest {
	return membership.JoinRequest{ID: id, Fingerprint: catalog.Fingerprint(), Heartbeat: hb}
}

func memberIDs(ms []membership.Member) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

func TestTableLifecycle(t *testing.T) {
	clk := newClock()
	var logs []string
	fleet := newFleet(t, cluster.Config{
		Clock: clk,
		Logf:  func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})

	m, err := fleet.Join(joinAs("http://a", membership.Heartbeat{UnitSeconds: 0.5}))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if m.Status != membership.StatusActive || m.UnitSeconds != 0.5 {
		t.Fatalf("joined member = %+v", m)
	}
	if _, err := fleet.Join(joinAs("http://b", membership.Heartbeat{})); err != nil {
		t.Fatalf("join b: %v", err)
	}
	if n := len(fleet.Members()); n != 2 {
		t.Fatalf("%d members, want 2", n)
	}

	// A re-join refreshes in place: no duplicate member, no second join
	// counter tick, no second join log line.
	if _, err := fleet.Join(joinAs("http://a", membership.Heartbeat{})); err != nil {
		t.Fatalf("re-join: %v", err)
	}
	if joins, _, _ := fleet.Counters(); joins != 2 {
		t.Fatalf("joins = %d, want 2", joins)
	}

	// Later re-joins are the member's heartbeats: each refreshes the load
	// signals and the deadline and is counted, the earlier one included.
	clk.Advance(3 * time.Second)
	m, err = fleet.Join(joinAs("http://a", membership.Heartbeat{QueueDepth: 7, UnitSeconds: 0.25}))
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if m.QueueDepth != 7 || m.UnitSeconds != 0.25 || m.Heartbeats != 2 || !m.LastSeen.Equal(clk.Now()) {
		t.Fatalf("after the heartbeat: %+v", m)
	}

	// Every re-join sets the drain status; only its edges are logged.
	for _, draining := range []bool{true, true, false} {
		m, err := fleet.Join(joinAs("http://a", membership.Heartbeat{Draining: draining}))
		if err != nil || (m.Status == membership.StatusDraining) != draining {
			t.Fatalf("re-join draining=%v: %+v, %v", draining, m, err)
		}
	}
	if !fleet.Leave("http://b") {
		t.Fatal("leave b reported absent")
	}
	if fleet.Leave("http://b") {
		t.Fatal("second leave reported present")
	}
	if joins, leaves, evictions := fleet.Counters(); joins != 2 || leaves != 1 || evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 2 joins, 1 leave", joins, leaves, evictions)
	}
	if ids := memberIDs(fleet.Members()); fmt.Sprint(ids) != "[http://a]" {
		t.Fatalf("members = %v, want [http://a]", ids)
	}

	fp := catalog.Fingerprint()
	want := []string{
		"membership: http://a joined (catalog " + fp + ", go )",
		"cluster: worker http://a joined",
		"membership: http://b joined (catalog " + fp + ", go )",
		"cluster: worker http://b joined",
		"membership: http://a draining",
		"membership: http://a active again",
		"membership: http://b left",
		"cluster: worker http://b evicted, 0 leases requeued",
	}
	if strings.Join(logs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log lines:\n%s\nwant:\n%s", strings.Join(logs, "\n"), strings.Join(want, "\n"))
	}
}

func TestJoinRejectsFingerprintSkew(t *testing.T) {
	fleet := newFleet(t, cluster.Config{})
	skewed := membership.JoinRequest{ID: "http://a", Fingerprint: "bad"}
	var fe *membership.FingerprintError
	if _, err := fleet.Join(skewed); !errors.As(err, &fe) {
		t.Fatalf("skewed join: err = %v, want *FingerprintError", err)
	}
	if _, err := fleet.Join(joinAs("", membership.Heartbeat{})); err == nil {
		t.Fatal("empty-id join accepted")
	}
	if n := len(fleet.Members()); n != 0 {
		t.Fatalf("%d members after refused joins", n)
	}
}

func TestSweepEvictsSilentMembers(t *testing.T) {
	clk := newClock()
	fleet := newFleet(t, cluster.Config{Clock: clk, Client: probes{}.client()})
	for _, id := range []string{"http://quiet", "http://chatty"} {
		if _, err := fleet.Join(joinAs(id, membership.Heartbeat{})); err != nil {
			t.Fatal(err)
		}
	}

	clk.Advance(8 * time.Second)
	if _, err := fleet.Join(joinAs("http://chatty", membership.Heartbeat{})); err != nil {
		t.Fatal(err)
	}
	fleet.Sweep(context.Background())
	if _, _, evictions := fleet.Counters(); evictions != 0 {
		t.Fatalf("sweep before the TTL evicted %d", evictions)
	}
	clk.Advance(3 * time.Second) // quiet is 11s silent, chatty 3s
	fleet.Sweep(context.Background())
	if ids := memberIDs(fleet.Members()); fmt.Sprint(ids) != "[http://chatty]" {
		t.Fatalf("members after the sweep = %v, want just http://chatty", ids)
	}
	if _, _, evictions := fleet.Counters(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	// An evicted worker's next join — its agent sends one every tick —
	// admits it again as a fresh member.
	m, err := fleet.Join(joinAs("http://quiet", membership.Heartbeat{}))
	if err != nil {
		t.Fatalf("join after eviction: %v", err)
	}
	if joins, _, _ := fleet.Counters(); joins != 3 || m.Heartbeats != 0 || !m.JoinedAt.Equal(clk.Now()) {
		t.Fatalf("join after eviction: %d joins, member %+v; want 3 joins and a fresh member", joins, m)
	}
}

// TestSweepProbeDrainingGetsGrace is the Retry-After propagation contract:
// a silent member whose pre-eviction /healthz probe answers "draining" is
// listed draining — no new leases — and held max(TTL, Retry-After)
// instead of being evicted, and one that answers "ok" is held one more
// TTL as active, whatever its last join said.
func TestSweepProbeDrainingGetsGrace(t *testing.T) {
	clk := newClock()
	answers := probes{
		"http://draining": {status: "draining", retryAfter: "30"},
		"http://alive":    {status: "ok"},
	}
	fleet := newFleet(t, cluster.Config{Clock: clk, Client: answers.client()})
	for id, draining := range map[string]bool{"http://draining": false, "http://alive": true, "http://dead": false} {
		if _, err := fleet.Join(joinAs(id, membership.Heartbeat{Draining: draining})); err != nil {
			t.Fatal(err)
		}
	}

	clk.Advance(11 * time.Second)
	fleet.Sweep(context.Background())
	status := map[string]membership.Status{}
	for _, m := range fleet.Members() {
		status[m.ID] = m.Status
	}
	if len(status) != 2 || status["http://draining"] != membership.StatusDraining || status["http://alive"] != membership.StatusActive {
		t.Fatalf("members after the first sweep = %v, want draining held as draining and alive as active", status)
	}

	// The grace is Retry-After (30s) — longer than another TTL. 20s later
	// the draining member is still held; 31s after the probe it is gone.
	clk.Advance(20 * time.Second)
	fleet.Sweep(context.Background())
	if n := len(fleet.Members()); n != 2 {
		t.Fatalf("%d members 20s into the grace, want 2", n)
	}
	delete(answers, "http://draining") // now truly gone
	delete(answers, "http://alive")
	clk.Advance(11 * time.Second)
	fleet.Sweep(context.Background())
	if ids := memberIDs(fleet.Members()); len(ids) != 0 {
		t.Fatalf("members %v survived after their grace lapsed", ids)
	}
	if _, _, evictions := fleet.Counters(); evictions != 3 {
		t.Fatalf("evictions = %d, want 3", evictions)
	}
}

// TestMeanUnitSeconds: before the adaptive sizer has a sample, the
// advisor's rate signal is the mean of the members' reported rates.
func TestMeanUnitSeconds(t *testing.T) {
	fleet := newFleet(t, cluster.Config{})
	if got := fleet.Core().MeanUnitSeconds(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	for id, rate := range map[string]float64{"http://a": 0.2, "http://b": 0.4, "http://c": 0} { // c has no sample yet
		if _, err := fleet.Join(joinAs(id, membership.Heartbeat{UnitSeconds: rate})); err != nil {
			t.Fatal(err)
		}
	}
	if got := fleet.Core().MeanUnitSeconds(); got < 0.299 || got > 0.301 {
		t.Fatalf("mean = %v, want 0.3", got)
	}
}

func TestRecommend(t *testing.T) {
	cases := []struct {
		backlog int
		unitSec float64
		target  time.Duration
		min     int
		max     int
		want    int
	}{
		// 1000 units × 0.1s = 100 worker-seconds; 10s target → 10 workers.
		{1000, 0.1, 10 * time.Second, 1, 0, 10},
		// Ceiling: 101 worker-seconds over 10s → 11.
		{1010, 0.1, 10 * time.Second, 1, 0, 11},
		// Clamped to max.
		{1000, 0.1, time.Second, 1, 16, 16},
		// Clamped to min.
		{1, 0.1, time.Hour, 2, 0, 2},
		// No rate signal yet → min.
		{1000, 0, 10 * time.Second, 3, 0, 3},
		// Empty backlog → min.
		{0, 0.1, 10 * time.Second, 1, 0, 1},
		// min floors at 1.
		{0, 0, time.Second, 0, 0, 1},
	}
	for _, c := range cases {
		if got := membership.Recommend(c.backlog, c.unitSec, c.target, c.min, c.max); got != c.want {
			t.Errorf("Recommend(%d, %v, %v, %d, %d) = %d, want %d",
				c.backlog, c.unitSec, c.target, c.min, c.max, got, c.want)
		}
	}
}

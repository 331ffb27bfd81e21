package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oraclesize/internal/campaign"
)

// TestMembershipChurnBoundsWorkerState churns 50 short-lived workers
// through a 3-founder fleet, driving Core directly. Each joiner completes
// one shard (seeding its EWMA and metrics row), is evicted while holding a
// second lease, and a founder picks the requeued shard up. The test pins
// the elastic-membership invariants:
//
//   - eviction requeues held leases without charging the attempt budget
//     (Retries stays 0; the late Fail reports 0 attempts burned);
//   - the requeued lease landing on a founder counts as a reassignment;
//   - per-worker scheduling state (sizer EWMA, metrics histograms) retires
//     with the member, so a long-lived coordinator holds state bounded by
//     live membership, not by every worker ever seen.
func TestMembershipChurnBoundsWorkerState(t *testing.T) {
	const churns = 50
	cfg := fastConfig("seed-0", "seed-1", "seed-2")
	cfg.MinShardSize, cfg.MaxShardSize = 2, 2
	var buf bytes.Buffer
	// 2 fresh carves per churn cycle at 2 units each consumes the campaign
	// exactly.
	totalUnits := churns * 2 * cfg.MinShardSize
	core, err := NewCore(cfg, unitSpec(totalUnits), nil, campaign.NewSink(&buf))
	if err != nil {
		t.Fatal(err)
	}

	for g := 0; g < churns; g++ {
		name := fmt.Sprintf("churn-%d", g)
		idx, added, err := core.AddWorker(name)
		if err != nil || !added {
			t.Fatalf("AddWorker(%s) = (%d, %v, %v), want fresh member", name, idx, added, err)
		}
		if _, ok := core.Gate(idx); !ok {
			t.Fatalf("gate closed for freshly joined %s", name)
		}

		// First lease completes: the joiner contributes work and seeds its
		// EWMA and metrics row — the state that must retire with it.
		l, ok := core.Acquire(idx)
		if !ok {
			t.Fatalf("no lease for freshly joined %s", name)
		}
		if _, err := core.Complete(l, make([][]campaign.Record, l.Shard.Len()), 10*time.Millisecond); err != nil {
			t.Fatalf("complete on %s: %v", name, err)
		}

		// Second lease is in flight when the member is evicted.
		held, ok := core.Acquire(idx)
		if !ok {
			t.Fatalf("no second lease for %s", name)
		}
		requeued, live := core.DropWorker(name)
		if !live || requeued != 1 {
			t.Fatalf("DropWorker(%s) = (%d, %v), want 1 lease requeued from a live member", name, requeued, live)
		}
		// The departed worker's dispatch settles late, as it does when an
		// HTTP dispatch is cancelled by the eviction: the outcome must be
		// dropped without charging the shard's attempt budget.
		if req, attempts := core.Fail(held, fmt.Errorf("connection reset"), time.Millisecond); req || attempts != 0 {
			t.Fatalf("late Fail after eviction = (requeued=%v, attempts=%d), want dropped with no charge", req, attempts)
		}

		// A founder picks the requeued shard up — a reassignment, not a
		// retry.
		if _, ok := core.Gate(0); !ok {
			t.Fatal("founder gate closed")
		}
		rl, ok := core.Acquire(0)
		if !ok {
			t.Fatal("founder found no requeued lease")
		}
		if rl.Shard != held.Shard {
			t.Fatalf("founder acquired %v, want the evicted worker's shard %v", rl.Shard, held.Shard)
		}
		if _, err := core.Complete(rl, make([][]campaign.Record, rl.Shard.Len()), 10*time.Millisecond); err != nil {
			t.Fatalf("founder completing requeued shard: %v", err)
		}
	}

	if !core.Finished() {
		t.Fatal("campaign not finished after all churn cycles")
	}
	if got, want := core.Workers(), 3+churns; got != want {
		t.Fatalf("Workers() = %d, want %d (tombstones keep their indexes)", got, want)
	}
	if got := core.LiveWorkers(); got != 3 {
		t.Fatalf("LiveWorkers() = %d, want the 3 founders", got)
	}

	stats := core.Stats()
	if stats.Retries != 0 {
		t.Fatalf("Retries = %d, want 0: eviction requeues must not charge the retry counter", stats.Retries)
	}
	if stats.Reassignments != churns {
		t.Fatalf("Reassignments = %d, want %d (one per evicted lease)", stats.Reassignments, churns)
	}

	// Heavy per-worker state is bounded by live membership: the 50 departed
	// members left tombstone structs behind, nothing else.
	core.st.sizer.mu.Lock()
	ewmaLen := len(core.st.sizer.ewma)
	core.st.sizer.mu.Unlock()
	if ewmaLen > core.LiveWorkers() {
		t.Fatalf("sizer holds %d EWMA entries for %d live workers", ewmaLen, core.LiveWorkers())
	}
	core.m.mu.Lock()
	metricsLen := len(core.m.byWorker)
	var stale []string
	for name := range core.m.byWorker {
		if strings.HasPrefix(name, "churn-") {
			stale = append(stale, name)
		}
	}
	core.m.mu.Unlock()
	if metricsLen > core.LiveWorkers() {
		t.Fatalf("metrics hold %d per-worker rows for %d live workers", metricsLen, core.LiveWorkers())
	}
	if len(stale) > 0 {
		t.Fatalf("metrics still hold rows for departed workers: %v", stale)
	}
}

// TestJoinBeforeRun admits a worker through Join before Run starts, as
// oracleherd -listen does when a worker registers before the campaign
// begins: Run must give the joined worker lease slots, and the artifact
// must equal the local run.
func TestJoinBeforeRun(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)
	ts := newWorkerServer(t, nil)

	cfg := fastConfig() // no founders
	cfg.Elastic = true
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(joinAs(ts.URL)); err != nil {
		t.Fatalf("pre-run join: %v", err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("artifact differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	if n := stats.WorkerShards[ts.URL]; n == 0 {
		t.Fatalf("worker joined before Run completed 0 shards; WorkerShards = %v", stats.WorkerShards)
	}
}

// TestMixedStaticDynamicFleet runs a campaign on two static founders while
// two more workers join dynamically mid-run; one of the joiners is killed
// while holding a lease and evicted by a Sweep, whose /healthz probe finds
// it unreachable.
// The merged artifact must still match the single-machine run byte for
// byte, with the surviving joiner contributing shards.
func TestMixedStaticDynamicFleet(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	// Founders are slowed slightly so the campaign outlives the joins.
	var startedOnce sync.Once
	started := make(chan struct{})
	slowWrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				startedOnce.Do(func() { close(started) })
				time.Sleep(5 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	staticA := newWorkerServer(t, slowWrap)
	staticB := newWorkerServer(t, slowWrap)
	keeper := newWorkerServer(t, nil)

	var (
		victimOnce    sync.Once
		victimStarted = make(chan struct{})
		gate          = make(chan struct{})
		dead          atomic.Bool
	)
	victim := newWorkerServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				victimOnce.Do(func() { close(victimStarted) })
				<-gate // hold the lease until the test kills the worker
				if dead.Load() {
					http.Error(w, "dying", http.StatusInternalServerError)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})

	cfg := fastConfig(staticA.URL, staticB.URL)
	cfg.MinShardSize, cfg.MaxShardSize = 1, 1 // many shards, so joiners find work
	cfg.MemberTTL = time.Nanosecond           // every member is overdue by the time the test sweeps
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}

	runDone, swept := make(chan struct{}), make(chan struct{})
	joinErrs := make(chan error, 2)
	go func() {
		defer close(swept)
		<-started // the campaign is live: join the dynamic pair
		for _, ts := range []*httptest.Server{keeper, victim} {
			_, err := c.Join(joinAs(ts.URL))
			joinErrs <- err
		}
		select {
		case <-victimStarted:
			// The victim holds a lease: kill the process, then sweep. The
			// keeper answers its probe and stays; the victim is evicted.
			dead.Store(true)
			close(gate)
			victim.CloseClientConnections()
			victim.Close()
			c.Sweep(context.Background())
		case <-runDone:
		}
	}()

	stats, err := c.Run(context.Background())
	close(runDone)
	if err != nil {
		t.Fatalf("mixed-fleet run: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-joinErrs; err != nil {
			t.Fatalf("mid-run join: %v", err)
		}
	}
	select {
	case <-victimStarted:
	default:
		t.Fatal("the doomed dynamic worker never received a lease; the kill path went untested")
	}
	<-swept
	if _, _, evictions := c.Counters(); evictions != 1 {
		t.Fatalf("evictions = %d, want the killed worker's", evictions)
	}
	if m := c.Members(); len(m) != 1 || m[0].ID != keeper.URL {
		t.Fatalf("members after the sweep = %+v, want the keeper alone", m)
	}

	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatalf("mixed static+dynamic artifact differs from local run\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	if n := stats.WorkerShards[keeper.URL]; n == 0 {
		t.Fatalf("dynamically joined worker completed 0 shards; WorkerShards = %v", stats.WorkerShards)
	}
	if n := stats.WorkerShards[victim.URL]; n != 0 {
		t.Fatalf("killed worker credited with %d shards, want 0", n)
	}
	if stats.Reassignments == 0 {
		t.Fatalf("Reassignments = 0, want the killed worker's lease on a survivor; stats = %+v", stats)
	}
	var completed int64
	for _, n := range stats.WorkerShards {
		completed += n
	}
	if completed != int64(stats.Shards) {
		t.Fatalf("completions sum to %d, want %d shards", completed, stats.Shards)
	}
}

package fleetsim_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/cluster"
	"oraclesize/internal/cluster/fleetsim"
)

// TestElasticZeroFounderCampaign is the elastic-fleet acceptance test on
// virtual time: the campaign starts with no workers at all, two join
// mid-run, one of them goes silent and is TTL-evicted, and the merged
// artifact still matches a local single-process run byte for byte.
func TestElasticZeroFounderCampaign(t *testing.T) {
	spec := bigSpec(10) // 160 units
	want := localCanon(t, spec)
	sc := fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "late-a", UnitTime: time.Millisecond, JoinAt: 10 * time.Millisecond},
			{Name: "late-b", UnitTime: time.Millisecond, JoinAt: 15 * time.Millisecond,
				SilentFrom: 40 * time.Millisecond},
		},
		MemberTTL: 20 * time.Millisecond,
		Spec:      spec,
		Config: cluster.Config{
			MinShardSize: 8,
			MaxShardSize: 8,
			Slots:        1,
			LeaseTimeout: time.Hour, // only eviction can recover the hung leases
			HedgeAfter:   -1,
			MaxAttempts:  8,
		},
	}
	res := mustRun(t, sc)
	if res.Joins != 2 {
		t.Fatalf("joins = %d, want 2", res.Joins)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the silent worker)", res.Evictions)
	}
	st := res.Stats
	if st.WorkerShards["late-a"] < 1 || st.WorkerShards["late-b"] < 1 {
		t.Fatalf("both dynamic workers should contribute before the kill: %+v", st.WorkerShards)
	}
	if st.Reassignments < 1 {
		t.Fatalf("the evicted worker's lease was never reassigned: %+v", st)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run after zero-founder elastic campaign")
	}

	// The whole churn schedule must be deterministic.
	res2 := mustRun(t, sc)
	if res.Makespan != res2.Makespan || res.Events != res2.Events {
		t.Fatalf("churn schedule diverged: %v/%d vs %v/%d",
			res.Makespan, res.Events, res2.Makespan, res2.Events)
	}
	if !reflect.DeepEqual(res.Stats, res2.Stats) {
		t.Fatalf("stats diverged:\n%+v\n%+v", res.Stats, res2.Stats)
	}
	if !bytes.Equal(res.Artifact, res2.Artifact) {
		t.Fatal("artifacts diverged between identical churn scenarios")
	}
}

// TestEvictionBeatsLeaseTimeout is the reason membership exists: when a
// worker goes silent holding leases, the TTL sweeper's eviction requeues
// them immediately, while a membership-less coordinator waits out the full
// lease timeout. Same scenario, same fleet — the evicting run must finish
// far sooner, and both artifacts must stay correct.
func TestEvictionBeatsLeaseTimeout(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localCanon(t, spec)
	base := fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "steady", UnitTime: time.Millisecond},
			{Name: "hang", UnitTime: time.Millisecond, SilentFrom: 5 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        1,
			LeaseTimeout: 300 * time.Millisecond,
			HedgeAfter:   -1,
			MaxAttempts:  8,
			BackoffBase:  10 * time.Millisecond,
			BackoffMax:   50 * time.Millisecond,
		},
	}

	leaseOnly := base // MemberTTL zero: recovery waits out the lease
	slow := mustRun(t, leaseOnly)

	evicting := base
	evicting.MemberTTL = 40 * time.Millisecond
	fast := mustRun(t, evicting)

	t.Logf("lease-timeout-only makespan %v, eviction makespan %v", slow.Makespan, fast.Makespan)
	if slow.Makespan < base.Config.LeaseTimeout {
		t.Fatalf("lease-only makespan %v finished before the lease even expired — the hang never bit", slow.Makespan)
	}
	if fast.Makespan*2 >= slow.Makespan {
		t.Fatalf("eviction makespan %v not clearly better than lease-only %v", fast.Makespan, slow.Makespan)
	}
	if fast.Evictions != 1 || slow.Evictions != 0 {
		t.Fatalf("evictions = %d/%d, want 1 with TTL and 0 without", fast.Evictions, slow.Evictions)
	}
	if fast.Stats.Reassignments < 1 {
		t.Fatalf("eviction run recorded no reassignment: %+v", fast.Stats)
	}
	for name, res := range map[string]*fleetsim.Result{"lease-only": slow, "evicting": fast} {
		if !bytes.Equal(canonBytes(t, res.Artifact), want) {
			t.Fatalf("%s artifact differs from local run", name)
		}
	}
}

// TestGracefulLeaveRequeuesImmediately deregisters a worker mid-campaign
// (the oracled shutdown path posting /v1/fleet/leave) and checks its work
// moves on without a lease expiry.
func TestGracefulLeaveRequeuesImmediately(t *testing.T) {
	spec := bigSpec(8)
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "steady", UnitTime: time.Millisecond},
			{Name: "leaver", UnitTime: time.Millisecond, LeaveAt: 20 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 8,
			MaxShardSize: 8,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
		},
	})
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if res.Stats.WorkerShards["leaver"] < 1 {
		t.Fatalf("leaver contributed nothing before departing: %+v", res.Stats.WorkerShards)
	}
	// Half the fleet left at 20ms; steady alone needs one unit-time per
	// remaining unit, so the makespan must stay within the solo bound and
	// beyond the duo bound.
	solo := time.Duration(res.Stats.Units) * time.Millisecond
	if res.Makespan >= solo {
		t.Fatalf("makespan %v worse than a solo run %v — leave stalled the campaign", res.Makespan, solo)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run after graceful leave")
	}
}

// TestBoundedWorkerQueuesAndSheds models oracled's real service shape: one
// executor, a one-deep queue, three coordinator slots. The third
// concurrent dispatch must shed with 503, the rest serialize, and the
// artifact stays intact.
func TestBoundedWorkerQueuesAndSheds(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "bounded", UnitTime: time.Millisecond, Capacity: 1, QueueCap: 1,
				RetryAfter: 10 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        3,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
			MaxAttempts:  16,
			BackoffBase:  5 * time.Millisecond,
			BackoffMax:   20 * time.Millisecond,
		},
	})
	st := res.Stats
	if st.Retries < 1 {
		t.Fatalf("three slots against capacity 1+1 never shed: %+v", st)
	}
	// One server means service times add up: the makespan cannot beat
	// units × unit-time no matter how many slots dispatch.
	if floor := time.Duration(st.Units) * time.Millisecond; res.Makespan < floor {
		t.Fatalf("makespan %v beat the single-server floor %v", res.Makespan, floor)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run under queueing and shedding")
	}
}

// TestLeaseCoversQueueWait pins the queue-wait accounting: a dispatch that
// waits behind a busy server spends lease budget in line, so a service
// time that would fit a fresh lease still expires. 5ms shards against an
// 8ms lease: the first dispatch completes (5 < 8), the queued one starts
// at 5ms with only 3ms of lease left and dies at 8ms.
func TestLeaseCoversQueueWait(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "narrow", UnitTime: time.Millisecond, Capacity: 1, QueueCap: 2},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 5,
			MaxShardSize: 5,
			Slots:        2,
			LeaseTimeout: 8 * time.Millisecond,
			HedgeAfter:   -1,
			MaxAttempts:  32,
			BackoffBase:  2 * time.Millisecond,
			BackoffMax:   10 * time.Millisecond,
		},
	})
	if res.Stats.Retries < 1 {
		t.Fatalf("queue wait never burned a lease: %+v", res.Stats)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run under lease-in-queue expiry")
	}
}

// TestJitterIsDeterministic checks the jitter stream is seeded, not
// ambient: the same jittered scenario twice is identical to the byte,
// while switching the jitter off moves the makespan.
func TestJitterIsDeterministic(t *testing.T) {
	spec := bigSpec(8)
	want := localCanon(t, spec)
	sc := fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "a", UnitTime: time.Millisecond, Jitter: time.Millisecond},
			{Name: "b", UnitTime: time.Millisecond, Jitter: 2 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
			Seed:         11,
		},
	}
	x := mustRun(t, sc)
	y := mustRun(t, sc)
	if x.Makespan != y.Makespan || x.Events != y.Events || !bytes.Equal(x.Artifact, y.Artifact) {
		t.Fatalf("jittered runs diverged: %v/%d vs %v/%d", x.Makespan, x.Events, y.Makespan, y.Events)
	}

	flat := sc
	flat.Workers = []fleetsim.Worker{
		{Name: "a", UnitTime: time.Millisecond},
		{Name: "b", UnitTime: time.Millisecond},
	}
	z := mustRun(t, flat)
	if z.Makespan == x.Makespan {
		t.Fatalf("jitter had no effect on the makespan (%v)", x.Makespan)
	}
	if x.Makespan <= z.Makespan {
		t.Fatalf("jittered makespan %v not slower than flat %v", x.Makespan, z.Makespan)
	}
	if !bytes.Equal(canonBytes(t, x.Artifact), want) {
		t.Fatal("jittered artifact differs from local run")
	}
}

// TestAutoscaleGrowsFleetToTarget closes the loop: the advisor samples
// backlog and the sizer's per-unit estimate mid-run, recommends a fleet
// for the target makespan, and the scenario's spawn hook joins clones
// until the fleet matches — the fleetsim analogue of -target-makespan
// with an external provisioner acting on the advice.
func TestAutoscaleGrowsFleetToTarget(t *testing.T) {
	spec := bigSpec(15) // 240 units
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{{Name: "seed", UnitTime: 2 * time.Millisecond}},
		Spec:    spec,
		Autoscale: &fleetsim.Autoscale{
			Interval: 10 * time.Millisecond,
			Target:   50 * time.Millisecond,
			Min:      1,
			Max:      4,
			Template: &fleetsim.Worker{UnitTime: 2 * time.Millisecond},
		},
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
		},
	})
	if len(res.Advice) < 2 {
		t.Fatalf("only %d advisor samples recorded", len(res.Advice))
	}
	first := res.Advice[0]
	if first.Recommended != 4 {
		t.Fatalf("first recommendation %+v, want the max (4): 240 slow units cannot meet a 50ms target", first)
	}
	if res.Joins != 3 {
		t.Fatalf("joins = %d, want 3 spawned clones", res.Joins)
	}
	if res.Stats.WorkerShards["auto-0"] < 1 {
		t.Fatalf("spawned workers never contributed: %+v", res.Stats.WorkerShards)
	}
	for i := 1; i < len(res.Advice); i++ {
		if res.Advice[i].Backlog > res.Advice[i-1].Backlog {
			t.Fatalf("backlog grew between samples: %+v -> %+v", res.Advice[i-1], res.Advice[i])
		}
	}
	// 240 units at 2ms each: one worker needs 480ms; four should land
	// well under half that.
	solo := time.Duration(res.Stats.Units) * 2 * time.Millisecond
	if res.Makespan*2 >= solo {
		t.Fatalf("makespan %v: autoscaling bought nothing over solo %v", res.Makespan, solo)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run under autoscaling")
	}
}

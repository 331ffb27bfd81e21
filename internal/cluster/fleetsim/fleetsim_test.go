package fleetsim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/cluster"
	"oraclesize/internal/cluster/fleetsim"
)

// canonBytes reduces a JSONL artifact to canonical form: unit order,
// timing stripped. Byte equality of canon forms is the repo's
// distributed-equals-local contract.
func canonBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	recs, err := campaign.DecodeRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding artifact: %v", err)
	}
	var buf bytes.Buffer
	if err := campaign.EncodeRecords(&buf, campaign.Canonicalize(recs)); err != nil {
		t.Fatalf("encoding canonical artifact: %v", err)
	}
	return buf.Bytes()
}

// localCanon runs the spec single-process and returns the canonical
// artifact every simulated run must reproduce.
func localCanon(t *testing.T, spec *campaign.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := campaign.Run(spec, campaign.NewSink(&buf), campaign.RunOptions{Workers: 1}); err != nil {
		t.Fatalf("local run: %v", err)
	}
	return canonBytes(t, buf.Bytes())
}

// bigSpec scales the quick spec's unit count through its trial count.
func bigSpec(trials int) *campaign.Spec {
	spec := campaign.QuickSpec()
	spec.Trials = trials
	return spec
}

func mustRun(t *testing.T, sc fleetsim.Scenario) *fleetsim.Result {
	t.Helper()
	res, err := fleetsim.Run(sc)
	if err != nil {
		t.Fatalf("fleetsim.Run: %v", err)
	}
	return res
}

// TestAdaptiveBeatsFixedWithSlowWorker is the controller's acceptance
// test: with one worker 10x slower than the other, adaptive sizing must
// beat fixed sizing (min = max = units/5) on virtual time — while both
// artifacts stay identical, in canonical form, to a local single-process
// run of the same spec.
func TestAdaptiveBeatsFixedWithSlowWorker(t *testing.T) {
	spec := bigSpec(15)
	want := localCanon(t, spec)
	fleet := []fleetsim.Worker{
		{Name: "fast", UnitTime: time.Millisecond},
		{Name: "slow", UnitTime: 10 * time.Millisecond},
	}
	units := len(spec.Units())
	base := cluster.Config{
		Slots:        1,
		LeaseTimeout: time.Hour,
		HedgeAfter:   -1,
		Seed:         7,
	}

	fixedCfg := base
	fixedCfg.MinShardSize, fixedCfg.MaxShardSize = units/5, units/5
	fixed := mustRun(t, fleetsim.Scenario{Workers: fleet, Spec: spec, Config: fixedCfg})

	adaptCfg := base
	adaptCfg.MinShardSize = 4
	adaptCfg.MaxShardSize = 64
	adaptCfg.TargetShardDuration = 24 * time.Millisecond
	adapt := mustRun(t, fleetsim.Scenario{Workers: fleet, Spec: spec, Config: adaptCfg})

	t.Logf("fixed makespan %v (%d shards), adaptive makespan %v (%d shards, sizes %d/%d/%d)",
		fixed.Makespan, fixed.Stats.Shards, adapt.Makespan, adapt.Stats.Shards,
		adapt.Stats.ShardSizeMin, adapt.Stats.ShardSizeMedian, adapt.Stats.ShardSizeMax)
	if adapt.Makespan >= fixed.Makespan {
		t.Fatalf("adaptive makespan %v did not beat fixed %v", adapt.Makespan, fixed.Makespan)
	}
	if adapt.Makespan > fixed.Makespan*3/4 {
		t.Fatalf("adaptive makespan %v not clearly better than fixed %v", adapt.Makespan, fixed.Makespan)
	}
	if adapt.Stats.ShardSizeMax <= adapt.Stats.ShardSizeMin {
		t.Fatalf("controller never varied shard sizes: %+v", adapt.Stats)
	}
	if got := fixed.Stats.ShardSizeMin; got != units/5 {
		t.Fatalf("fixed sizing carved a %d-unit shard, want every shard %d", got, units/5)
	}
	if !bytes.Equal(canonBytes(t, fixed.Artifact), want) {
		t.Fatal("fixed-sizing artifact differs from local run in canonical form")
	}
	if !bytes.Equal(canonBytes(t, adapt.Artifact), want) {
		t.Fatal("adaptive-sizing artifact differs from local run in canonical form")
	}
}

// TestAdaptiveConvergesAndGuardsTail pins the controller's decisions on a
// homogeneous fleet: a min-size probe first, target-duration shards once
// the EWMA has a sample, and a shrunken tail shard at the end.
func TestAdaptiveConvergesAndGuardsTail(t *testing.T) {
	spec := bigSpec(15) // 240 units
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{{Name: "w", UnitTime: time.Millisecond}},
		Spec:    spec,
		Config: cluster.Config{
			Slots:               1,
			LeaseTimeout:        time.Hour,
			HedgeAfter:          -1,
			MinShardSize:        4,
			MaxShardSize:        512,
			TargetShardDuration: 32 * time.Millisecond,
		},
	})
	st := res.Stats
	if st.ShardSizeMin != 4 {
		t.Fatalf("smallest shard %d, want the 4-unit probe", st.ShardSizeMin)
	}
	// 32ms target at 1ms/unit converges on ~32-unit shards (float
	// truncation may shave a unit).
	if st.ShardSizeMax < 31 || st.ShardSizeMax > 32 || st.ShardSizeMedian < 31 || st.ShardSizeMedian > 32 {
		t.Fatalf("converged sizes median %d max %d, want ~32", st.ShardSizeMedian, st.ShardSizeMax)
	}
	// Sequential single worker: makespan is exactly one unit-time per unit.
	if want := time.Duration(st.Units) * time.Millisecond; res.Makespan != want {
		t.Fatalf("makespan %v, want %v", res.Makespan, want)
	}
	if st.Retries != 0 || st.Hedges != 0 {
		t.Fatalf("healthy run recorded retries/hedges: %+v", st)
	}
}

// TestCrashedWorkerShardsAreReassigned crashes one worker mid-flight and
// checks its shard requeues onto the survivor with the artifact intact.
func TestCrashedWorkerShardsAreReassigned(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "steady", UnitTime: time.Millisecond},
			{Name: "doomed", UnitTime: time.Millisecond,
				Down: []fleetsim.Window{{From: 5 * time.Millisecond, To: 10 * time.Minute}}},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize:     4,
			MaxShardSize:     4,
			Slots:            1,
			LeaseTimeout:     time.Hour,
			HedgeAfter:       -1,
			MaxAttempts:      8,
			BackoffBase:      20 * time.Millisecond,
			BackoffMax:       40 * time.Millisecond,
			BreakerThreshold: 2,
		},
	})
	st := res.Stats
	if st.Retries < 1 {
		t.Fatalf("crash produced no retries: %+v", st)
	}
	if st.Reassignments < 1 {
		t.Fatalf("crashed worker's shard was never reassigned: %+v", st)
	}
	if st.WorkerShards["doomed"] < 1 {
		t.Fatalf("doomed worker should complete shards before crashing: %+v", st)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run after crash recovery")
	}
}

// TestStormRetryAfterIsHonored sheds one worker's dispatches with 503 +
// Retry-After and checks the hint overrides the (much shorter) backoff:
// the worker retries once, waits out the storm, and rejoins.
func TestStormRetryAfterIsHonored(t *testing.T) {
	spec := bigSpec(8)
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "steady", UnitTime: 2 * time.Millisecond},
			{Name: "stormy", UnitTime: time.Millisecond,
				Storm:      []fleetsim.Window{{From: 0, To: 30 * time.Millisecond}},
				RetryAfter: 100 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
			BackoffBase:  time.Millisecond,
			BackoffMax:   5 * time.Millisecond,
		},
	})
	st := res.Stats
	// Retry-After (100ms, jittered to >= 50ms) carries the worker past the
	// 30ms storm in one retry. Were the hint ignored, the 1-5ms backoff
	// would burn a failure every couple of milliseconds until the breaker
	// opened — at least three.
	if st.Retries < 1 || st.Retries > 2 {
		t.Fatalf("%d retries; Retry-After was not honored (want 1-2)", st.Retries)
	}
	if st.WorkerShards["stormy"] < 1 {
		t.Fatalf("stormy worker never rejoined after the storm: %+v", st)
	}
	soloMakespan := time.Duration(st.Units) * 2 * time.Millisecond
	if res.Makespan >= soloMakespan {
		t.Fatalf("makespan %v: stormy worker contributed nothing (steady alone takes %v)", res.Makespan, soloMakespan)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run after storm recovery")
	}
}

// TestLeaseExpiryExhaustsAttemptBudget drives a shard whose service time
// exceeds the lease: every dispatch dies at the deadline, and the run
// fails once the attempt budget is spent.
func TestLeaseExpiryExhaustsAttemptBudget(t *testing.T) {
	_, err := fleetsim.Run(fleetsim.Scenario{
		Workers: []fleetsim.Worker{{Name: "w", UnitTime: 10 * time.Millisecond}},
		Spec:    campaign.QuickSpec(),
		Config: cluster.Config{
			MinShardSize: 8, // 80ms of service against a 50ms lease
			MaxShardSize: 8,
			Slots:        1,
			LeaseTimeout: 50 * time.Millisecond,
			HedgeAfter:   -1,
			MaxAttempts:  2,
		},
	})
	if err == nil {
		t.Fatal("run succeeded despite every dispatch outliving its lease")
	}
	if !strings.Contains(err.Error(), "failed 2 times") || !strings.Contains(err.Error(), "lease expired") {
		t.Fatalf("error %q, want attempt budget exhausted by lease expiries", err)
	}
}

// TestHedgeRescuesStraggler parks a shard on a pathologically slow worker
// and checks the idle worker re-dispatches it at exactly the hedge
// horizon, with the first result winning.
func TestHedgeRescuesStraggler(t *testing.T) {
	spec := campaign.QuickSpec()
	want := localCanon(t, spec)
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "fast", UnitTime: time.Millisecond},
			{Name: "glacial", UnitTime: 200 * time.Millisecond},
		},
		Spec: spec,
		Config: cluster.Config{
			MinShardSize: 4,
			MaxShardSize: 4,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   40 * time.Millisecond,
		},
	})
	st := res.Stats
	if st.Hedges != 1 {
		t.Fatalf("%d hedges, want exactly 1: %+v", st.Hedges, st)
	}
	// fast drains its 7 shards by 28ms, polls again at the 40ms hedge
	// horizon, and delivers the hedged 4-unit shard at 44ms — exactly.
	if wantSpan := 44 * time.Millisecond; res.Makespan != wantSpan {
		t.Fatalf("makespan %v, want %v (glacial worker alone would take %v)",
			res.Makespan, wantSpan, 800*time.Millisecond)
	}
	if st.WorkerShards["glacial"] != 0 {
		t.Fatalf("glacial worker beat the hedge somehow: %+v", st)
	}
	if !bytes.Equal(canonBytes(t, res.Artifact), want) {
		t.Fatal("artifact differs from local run under hedging")
	}
}

// TestSimulationIsDeterministic runs a scenario that exercises adaptive
// sizing, a mid-run crash, a storm and hedging — twice — and requires the
// two runs to match event for event, byte for byte.
func TestSimulationIsDeterministic(t *testing.T) {
	sc := fleetsim.Scenario{
		Workers: []fleetsim.Worker{
			{Name: "fast", UnitTime: time.Millisecond},
			{Name: "flaky", UnitTime: 5 * time.Millisecond,
				Down: []fleetsim.Window{{From: 60 * time.Millisecond, To: 80 * time.Millisecond}}},
			{Name: "stormy", UnitTime: 2 * time.Millisecond,
				Storm:      []fleetsim.Window{{From: 0, To: 20 * time.Millisecond}},
				RetryAfter: 30 * time.Millisecond},
		},
		Spec: bigSpec(10),
		Config: cluster.Config{
			MinShardSize:        2,
			MaxShardSize:        64,
			TargetShardDuration: 16 * time.Millisecond,
			Slots:               2,
			LeaseTimeout:        200 * time.Millisecond,
			HedgeAfter:          50 * time.Millisecond,
			MaxAttempts:         10,
			BackoffBase:         5 * time.Millisecond,
			BackoffMax:          50 * time.Millisecond,
			BreakerThreshold:    3,
			BreakerCooldown:     100 * time.Millisecond,
			Seed:                3,
		},
	}
	a := mustRun(t, sc)
	b := mustRun(t, sc)
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("schedule diverged: %v/%d events vs %v/%d events", a.Makespan, a.Events, b.Makespan, b.Events)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !bytes.Equal(a.Artifact, b.Artifact) {
		t.Fatal("artifacts diverged between identical scenarios")
	}
	if !bytes.Equal(canonBytes(t, a.Artifact), localCanon(t, sc.Spec)) {
		t.Fatal("artifact differs from local run under combined faults")
	}
}

// TestResumeNeverRedispatchesDoneUnits marks a unit range done and checks
// the simulator's carver leases around it while the artifact still covers
// every unit.
func TestResumeNeverRedispatchesDoneUnits(t *testing.T) {
	spec := campaign.QuickSpec()
	units := len(spec.Units())
	done := make([]bool, units)
	for i := 8; i < 16 && i < units; i++ {
		done[i] = true
	}
	res := mustRun(t, fleetsim.Scenario{
		Workers: []fleetsim.Worker{{Name: "w", UnitTime: time.Millisecond}},
		Spec:    spec,
		Done:    done,
		Config: cluster.Config{
			MinShardSize: 6, // straddles the done range: shards must end early at its edge
			MaxShardSize: 6,
			Slots:        1,
			LeaseTimeout: time.Hour,
			HedgeAfter:   -1,
		},
	})
	if res.Stats.Skipped != 8 {
		t.Fatalf("skipped %d units, want 8", res.Stats.Skipped)
	}
	if want := time.Duration(units-8) * time.Millisecond; res.Makespan != want {
		t.Fatalf("makespan %v, want %v — resumed units must not be re-executed", res.Makespan, want)
	}
	recs, err := campaign.DecodeRecords(bytes.NewReader(res.Artifact))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Unit] = true
	}
	for i, u := range spec.Units() {
		if i >= 8 && i < 16 {
			if seen[u.Key()] {
				t.Fatalf("resumed unit %d (%s) was re-executed", i, u.Key())
			}
		} else if !seen[u.Key()] {
			t.Fatalf("unit %d (%s) missing from artifact", i, u.Key())
		}
	}
}

package fleetsim_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/cluster/fleetsim"
)

// ablationFamily is one fault scenario. fleet builds its workers for a
// per-unit service time u and a time scale s: at s = 1 s the healthy
// two-worker campaign takes about 16 s, at s = 10 s about 160 s.
type ablationFamily struct {
	name  string
	ttl   bool // run the membership sweeper at its default 10 s TTL
	fleet func(u, s time.Duration) []fleetsim.Worker
}

// ablationFamilies are the table's rows. Every worker pays a 5 ms
// dispatch overhead; crash and storm windows open 2 s into the run
// (scaled by s) and keep their absolute lengths at both scales.
var ablationFamilies = func() []ablationFamily {
	w := func(name string, u time.Duration) fleetsim.Worker {
		return fleetsim.Worker{Name: name, UnitTime: u, Overhead: 5 * time.Millisecond}
	}
	down := func(length time.Duration) func(u, s time.Duration) []fleetsim.Worker {
		return func(u, s time.Duration) []fleetsim.Worker {
			b := w("b", u)
			b.Down = []fleetsim.Window{{From: 2 * s, To: 2*s + length}}
			return []fleetsim.Worker{w("a", u), b}
		}
	}
	dead := func(name string, u time.Duration) fleetsim.Worker {
		d := w(name, u)
		d.Down = []fleetsim.Window{{From: 0, To: 1000 * time.Hour}}
		return d
	}
	silent := func(u, s time.Duration) []fleetsim.Worker {
		b := w("b", u)
		b.SilentFrom = 2 * s
		return []fleetsim.Worker{w("a", u), b}
	}
	return []ablationFamily{
		{name: "healthy", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{w("a", u), w("b", u)}
		}},
		{name: "one-200x-slow", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{w("a", u), w("b", 200*u)}
		}},
		{name: "one-10x-slow", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{w("a", u), w("b", 10*u)}
		}},
		{name: "down-1s", fleet: down(time.Second)},
		{name: "down-10s", fleet: down(10 * time.Second)},
		{name: "down-60s", fleet: down(time.Minute)},
		{name: "down-300s", fleet: down(5 * time.Minute)},
		{name: "dead-founder", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{dead("a", u), w("b", u)}
		}},
		{name: "dead-founder-of-3", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{dead("a", u), w("b", u), w("c", u)}
		}},
		{name: "two-dead-of-3", fleet: func(u, s time.Duration) []fleetsim.Worker {
			return []fleetsim.Worker{dead("a", u), dead("b", u), w("c", u)}
		}},
		{name: "fleet-down-30s", fleet: func(u, s time.Duration) []fleetsim.Worker {
			// Every worker unreachable at once: a partition between the
			// coordinator and its fleet, or a fleet-wide restart.
			a, b := w("a", u), w("b", u)
			a.Down = []fleetsim.Window{{From: 2 * s, To: 2*s + 30*time.Second}}
			b.Down = a.Down
			return []fleetsim.Worker{a, b}
		}},
		{name: "flapping", fleet: func(u, s time.Duration) []fleetsim.Worker {
			// Down 2 s of every 5 s (20 of every 50 at the long scale).
			b := w("b", u)
			for from := 2 * s; from < 1000*s; from += 5 * s {
				b.Down = append(b.Down, fleetsim.Window{From: from, To: from + 2*s})
			}
			return []fleetsim.Worker{w("a", u), b}
		}},
		{name: "storm-30s", fleet: func(u, s time.Duration) []fleetsim.Worker {
			b := w("b", u)
			b.Storm = []fleetsim.Window{{From: 2 * s, To: 2*s + 30*time.Second}}
			b.RetryAfter = time.Second
			return []fleetsim.Worker{w("a", u), b}
		}},
		{name: "single-server", fleet: func(u, s time.Duration) []fleetsim.Worker {
			// oracled's shape: one executor and a short queue, shedding with
			// 503 + Retry-After 1 s when full; one worker has no queue.
			var fleet []fleetsim.Worker
			for i, queue := range []int{1, 1, 0} {
				x := w(fmt.Sprintf("q%d-%d", queue, i), u)
				x.Capacity, x.QueueCap, x.RetryAfter = 1, queue, time.Second
				fleet = append(fleet, x)
			}
			return fleet
		}},
		{name: "silent", fleet: silent},
		{name: "silent-ttl", ttl: true, fleet: silent},
		{name: "churn", fleet: func(u, s time.Duration) []fleetsim.Worker {
			b, c, d := w("b", u), w("c", u), w("d", u)
			b.LeaveAt = 4 * s
			c.JoinAt = 2 * s
			d.JoinAt, d.LeaveAt = 6*s, 10*s
			return []fleetsim.Worker{w("a", u), b, c, d}
		}},
	}
}()

// ablations are the table's columns: everything on, then one recovery
// mechanism switched off through a setting that already exists. Hedging
// rescues every cell a lost lease would otherwise stall, so the lease
// column switches hedging off too. The tail guard has no switch and stays
// out of the table; TestAdaptiveConvergesAndGuardsTail covers it.
var ablations = []struct {
	name string
	off  func(*fleetsim.Scenario)
}{
	{"none", func(*fleetsim.Scenario) {}},
	{"hedging", func(sc *fleetsim.Scenario) { sc.Config.HedgeAfter = -1 }},
	{"backoff", func(sc *fleetsim.Scenario) { sc.Config.BackoffBase, sc.Config.BackoffMax = 1, 1 }},
	{"ttl-eviction", func(sc *fleetsim.Scenario) { sc.MemberTTL = 0 }},
	{"lease+hedging", func(sc *fleetsim.Scenario) {
		sc.Config.LeaseTimeout, sc.Config.HedgeAfter = 1000*time.Hour, -1
	}},
	{"breaker", func(sc *fleetsim.Scenario) { sc.Config.BreakerThreshold = 1 << 30 }},
}

// TestRecoveryAblation measures what each of the coordinator's recovery
// mechanisms buys: every fault scenario, at a 16 s and a 160 s length,
// runs on the shipped defaults (a zero cluster.Config) with everything on
// and with each mechanism switched off in turn. The table — makespan,
// failed dispatches, the most attempts charged to one shard, wasted unit
// executions, hedges and reassignments — is pinned in
// testdata/ablation.golden. Every finished run must merge the local
// artifact; with everything on every run must finish with no shard at
// its attempt budget; and switching off any mechanism must cost more
// than 5% of makespan, or the run, in at least one scenario.
func TestRecoveryAblation(t *testing.T) {
	spec := bigSpec(10) // 160 units
	want := localCanon(t, spec)
	const maxAttempts = 8 // cluster.Config's default

	type cell struct {
		row, off string
		sc       fleetsim.Scenario
		// reuse marks a switch that changes nothing in this scenario: the
		// row's all-on run stands for it.
		reuse bool
		res   *fleetsim.Result
		err   error
	}
	var cells []*cell
	for _, length := range []struct {
		name string
		u, s time.Duration
	}{{"16s", 400 * time.Millisecond, time.Second}, {"160s", 4 * time.Second, 10 * time.Second}} {
		for _, fam := range ablationFamilies {
			base := fleetsim.Scenario{Workers: fam.fleet(length.u, length.s), Spec: spec}
			if fam.ttl {
				base.MemberTTL = 10 * time.Second
			}
			for _, ab := range ablations {
				sc := base
				ab.off(&sc)
				cells = append(cells, &cell{row: length.name + "/" + fam.name, off: ab.name, sc: sc,
					reuse: ab.name != "none" && reflect.DeepEqual(sc, base)})
			}
		}
	}
	// The simulations share nothing, so they run on every CPU.
	next := make(chan *cell)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				c.res, c.err = fleetsim.Run(c.sc)
			}
		}()
	}
	for _, c := range cells {
		if !c.reuse {
			next <- c
		}
	}
	close(next)
	wg.Wait()

	var table strings.Builder
	fmt.Fprintf(&table, "%-24s %-14s %14s %6s %4s %6s %6s %8s\n",
		"scenario", "off", "makespan", "failed", "att", "wasted", "hedges", "reassign")
	pays := map[string]bool{}
	var on *cell
	var merged []byte
	for _, c := range cells {
		if c.off == "none" {
			on = c
		} else if c.reuse {
			c.res, c.err = on.res, on.err
		}
		if c.res == nil {
			t.Fatalf("%s, %s off: %v", c.row, c.off, c.err)
		}
		makespan := fmt.Sprintf("%.3fs", c.res.Makespan.Seconds())
		switch {
		case c.err != nil:
			makespan = "FAIL"
		case bytes.Equal(c.res.Artifact, merged):
			// Runs flush in unit order with wall time zeroed, so a raw
			// artifact equal to one already checked needs no canon pass.
		case bytes.Equal(canonBytes(t, c.res.Artifact), want):
			merged = c.res.Artifact
		default:
			t.Errorf("%s, %s off: artifact differs from local run", c.row, c.off)
		}
		fmt.Fprintf(&table, "%-24s %-14s %14s %6d %4d %6d %6d %8d\n", c.row, c.off, makespan,
			c.res.Failed, c.res.MaxAttempts, c.res.Wasted, c.res.Stats.Hedges, c.res.Stats.Reassignments)
		switch {
		case c == on:
			if c.err != nil {
				t.Errorf("%s: failed with every mechanism on: %v", c.row, c.err)
			} else if c.res.MaxAttempts >= maxAttempts {
				t.Errorf("%s: a shard was charged %d attempts with every mechanism on", c.row, c.res.MaxAttempts)
			}
		case c.err != nil || c.res.Makespan*100 > on.res.Makespan*105:
			pays[c.off] = true
		}
	}
	for _, ab := range ablations[1:] {
		if !pays[ab.name] {
			t.Errorf("switching %s off never cost more than 5%% of makespan or failed a run", ab.name)
		}
	}

	got := table.String()
	golden, err := os.ReadFile("testdata/ablation.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("table differs from testdata/ablation.golden; got:\n%s", got)
	}
}

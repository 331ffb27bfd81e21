package wakeup

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// TestSchemeASteadyStateAllocBudget pins the wakeup hot path on a warm
// reused engine: the automata share one backing array and send into the
// engine's buffer, so a run allocates only that array and the Result
// bookkeeping, a constant independent of n (BENCH_sim.json records 5
// allocs/op at n=1024, down from 342 when every internal node allocated
// its own send slice). Any per-node allocation blows the budget.
func TestSchemeASteadyStateAllocBudget(t *testing.T) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	run := func() {
		res, err := e.Run(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("incomplete")
		}
	}
	run() // warm the engine's capacities
	const budget = 8
	if allocs := testing.AllocsPerRun(10, run); allocs > budget {
		t.Errorf("steady-state scheme A run: %.0f allocs, budget %d", allocs, budget)
	}
}

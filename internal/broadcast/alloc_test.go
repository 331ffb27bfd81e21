package broadcast

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// TestSchemeBSteadyStateAllocBudget pins the zero-allocation hot path: a
// warm reused engine running scheme B allocates only the per-run Result
// bookkeeping; the automata, their port bitsets and the Reader their
// advice decoding shares live in the engine's scratch and sends go to its
// buffer — a constant independent of n. BENCH_sim.json records 4
// allocs/op at n=1024; the budget fails on any per-node or per-message
// regression.
func TestSchemeBSteadyStateAllocBudget(t *testing.T) {
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
		res, err := e.Run(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("incomplete")
		}
	}
	run() // warm the engine's capacities
	const budget = 4
	if allocs := testing.AllocsPerRun(10, run); allocs > budget {
		t.Errorf("steady-state scheme B run: %.0f allocs, budget %d", allocs, budget)
	}
}

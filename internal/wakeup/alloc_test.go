package wakeup

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// steadyStateAllocs runs algo on a warm reused engine and returns the
// allocations of one further run.
func steadyStateAllocs(t *testing.T, g *graph.Graph, algo scheme.Algorithm, advice sim.Advice) float64 {
	t.Helper()
	e := sim.NewEngine()
	run := func() {
		res, err := e.Run(g, 0, algo, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("incomplete")
		}
	}
	run() // warm the engine's capacities
	return testing.AllocsPerRun(10, run)
}

// TestSchemeASteadyStateAllocBudget pins the wakeup hot path on a warm
// reused engine: the automata live in the engine's scratch and send into
// its buffer, so a run allocates only the Result bookkeeping (the Result,
// its Informed slice and its ByKind map), a constant independent of n
// (BENCH_sim.json records 4 allocs/op at n=1024, down from 342 when every
// internal node allocated its own send slice). Any per-node allocation,
// or automata built outside the scratch, blows the budget.
func TestSchemeASteadyStateAllocBudget(t *testing.T) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	if allocs := steadyStateAllocs(t, g, Algorithm{}, advice); allocs > budget {
		t.Errorf("steady-state scheme A run: %.0f allocs, budget %d", allocs, budget)
	}
}

// TestFloodingSteadyStateAllocBudget is the same budget for the
// zero-advice baseline, which sends most of a sweep campaign's messages:
// its pointer-free automata come from the engine's scratch too.
func TestFloodingSteadyStateAllocBudget(t *testing.T) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	if allocs := steadyStateAllocs(t, g, Flooding{}, nil); allocs > budget {
		t.Errorf("steady-state flooding run: %.0f allocs, budget %d", allocs, budget)
	}
}

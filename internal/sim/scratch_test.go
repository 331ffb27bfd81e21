package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// batchedScheme is one of the four schemes whose automata the engine
// builds in its scratch, with the advice it runs under on a graph.
type batchedScheme struct {
	algo   scheme.Algorithm
	advise func(*graph.Graph, graph.NodeID) (sim.Advice, error)
	wakeup bool
}

func batchedSchemes() []batchedScheme {
	none := func(*graph.Graph, graph.NodeID) (sim.Advice, error) { return nil, nil }
	return []batchedScheme{
		{wakeup.Algorithm{}, wakeup.Oracle{}.Advise, true},
		{wakeup.Flooding{}, none, true},
		{broadcast.Algorithm{}, broadcast.Oracle{}.Advise, false},
		{broadcast.Flooding{}, none, false},
	}
}

// bigAndSmall returns a 64-node random graph and a 16-node grid.
func bigAndSmall(t *testing.T) (big, small *graph.Graph) {
	t.Helper()
	big, err := graphgen.RandomConnected(64, 160, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if small, err = graphgen.Grid(4, 4); err != nil {
		t.Fatal(err)
	}
	return big, small
}

// TestEngineScratchReuseMatchesFreshEngine rotates one engine through the
// four batched schemes on big, small and big graphs again, under fifo and
// random delivery: every scheme's slabs are reused, shrunk and regrown,
// and every result must equal a fresh engine's field for field.
func TestEngineScratchReuseMatchesFreshEngine(t *testing.T) {
	big, small := bigAndSmall(t)
	// A nil Scheduler is the engine's own FIFO, as catalog runs use it.
	schedulers := []struct {
		name string
		make func() sim.Scheduler
	}{
		{"fifo", func() sim.Scheduler { return nil }},
		{"random", func() sim.Scheduler { return sim.NewRandom(42) }},
	}
	e := sim.NewEngine()
	for _, tc := range []struct {
		label string
		g     *graph.Graph
	}{{"big", big}, {"small", small}, {"big-again", big}} {
		for _, bs := range batchedSchemes() {
			advice, err := bs.advise(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range schedulers {
				label := fmt.Sprintf("%s/%s/%s", tc.label, bs.algo.Name(), sched.name)
				opts := func() sim.Options {
					return sim.Options{Scheduler: sched.make(), EnforceWakeup: bs.wakeup}
				}
				want, err := sim.NewEngine().Run(tc.g, 0, bs.algo, advice, opts())
				if err != nil {
					t.Fatalf("%s fresh: %v", label, err)
				}
				got, err := e.Run(tc.g, 0, bs.algo, advice, opts())
				if err != nil {
					t.Fatalf("%s reused: %v", label, err)
				}
				if w, g := sim.Snap(want), sim.Snap(got); !reflect.DeepEqual(w, g) {
					t.Errorf("%s: reused engine diverged from a fresh one:\nfresh:  %+v\nreused: %+v", label, w, g)
				}
				if !got.AllInformed {
					t.Errorf("%s: incomplete", label)
				}
			}
		}
	}
}

// TestRetainedAutomataOutliveEngineScratch checks that automata a
// RetainNodes run hands out keep their final state while the same engine
// runs every batched scheme again, on the small graph and on the big one
// from another source: the engine must give their storage away with them
// rather than carve the next run's automata from it.
func TestRetainedAutomataOutliveEngineScratch(t *testing.T) {
	big, small := bigAndSmall(t)
	later := []struct {
		g   *graph.Graph
		src graph.NodeID
	}{{small, 0}, {big, 5}, {small, 3}}
	e := sim.NewEngine()
	for _, kept := range batchedSchemes() {
		advice, err := kept.advise(big, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(big, 0, kept.algo, advice, sim.Options{RetainNodes: true})
		if err != nil {
			t.Fatal(err)
		}
		// %+v renders each automaton's fields, the contents of its
		// slices included, so the rendering is a deep copy of its state.
		final := make([]string, len(res.Nodes))
		for i, nd := range res.Nodes {
			final[i] = fmt.Sprintf("%+v", nd)
		}
		for _, run := range later {
			for _, bs := range batchedSchemes() {
				advice, err := bs.advise(run.g, run.src)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(run.g, run.src, bs.algo, advice, sim.Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, nd := range res.Nodes {
			if now := fmt.Sprintf("%+v", nd); now != final[i] {
				t.Fatalf("%s: retained automaton %d changed after later runs:\nfinal: %s\nnow:   %s",
					kept.algo.Name(), i, final[i], now)
			}
		}
	}
}

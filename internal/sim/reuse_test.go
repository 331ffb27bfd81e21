package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
)

// snapshot copies every Result field that must be reproducible across
// engine reuse. Nodes is only populated under RetainNodes and is covered
// separately.
type snapshot struct {
	Messages     int
	ByKind       map[scheme.Kind]int
	Informed     []bool
	AllInformed  bool
	Deliveries   int
	Rounds       int
	MessageBits  int
	MaxNodeSends int
}

func snap(res *Result) snapshot {
	s := snapshot{
		Messages:     res.Messages,
		AllInformed:  res.AllInformed,
		Deliveries:   res.Deliveries,
		Rounds:       res.Rounds,
		MessageBits:  res.MessageBits,
		MaxNodeSends: res.MaxNodeSends,
	}
	if res.ByKind != nil {
		s.ByKind = make(map[scheme.Kind]int, len(res.ByKind))
		for k, v := range res.ByKind {
			s.ByKind[k] = v
		}
	}
	s.Informed = append([]bool(nil), res.Informed...)
	return s
}

// TestEngineReuseDeterministicAcrossSchedulers is the pooled-engine
// determinism regression: a single reused Engine must produce identical
// Result fields to a fresh sim.Run under every scheduler, including after
// Reset shrinks it to a smaller graph. Random and delay schedulers are
// seeded identically on both sides via the same Schedulers base seed.
func TestEngineReuseDeterministicAcrossSchedulers(t *testing.T) {
	big := mustGraph(t)(graphgen.RandomConnected(64, 160, rand.New(rand.NewSource(7))))
	small := mustGraph(t)(graphgen.Grid(4, 4))
	graphs := []struct {
		label string
		g     *graph.Graph
	}{{"big", big}, {"small", small}, {"big-again", big}}

	e := NewEngine()
	for name, factory := range Schedulers(42) {
		for _, tc := range graphs {
			want, err := Run(tc.g, 0, flooding(), nil, Options{Scheduler: factory()})
			if err != nil {
				t.Fatalf("%s/%s fresh: %v", name, tc.label, err)
			}
			got, err := e.Run(tc.g, 0, flooding(), nil, Options{Scheduler: factory()})
			if err != nil {
				t.Fatalf("%s/%s reused: %v", name, tc.label, err)
			}
			if w, g := snap(want), snap(got); !reflect.DeepEqual(w, g) {
				t.Errorf("%s/%s: reused engine diverged from fresh run:\nfresh:  %+v\nreused: %+v",
					name, tc.label, w, g)
			}
		}
	}
}

// TestPooledRunDeterministic exercises the sync.Pool path of sim.Run
// directly: repeated Run calls (which recycle pooled engines) must agree
// with each other and with a dedicated engine.
func TestPooledRunDeterministic(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(48, 100, rand.New(rand.NewSource(3))))
	e := NewEngine()
	base, err := e.Run(g, 0, flooding(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := snap(base)
	for i := 0; i < 5; i++ {
		res, err := Run(g, 0, flooding(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := snap(res); !reflect.DeepEqual(want, got) {
			t.Fatalf("pooled Run #%d diverged:\nwant: %+v\ngot:  %+v", i, want, got)
		}
	}
}

// TestResultDoesNotAliasEngine pins the reuse contract's ownership rule:
// a Result returned by an engine must stay intact when the same engine
// runs again on a different graph.
func TestResultDoesNotAliasEngine(t *testing.T) {
	g1 := mustGraph(t)(graphgen.Cycle(12))
	g2 := mustGraph(t)(graphgen.Grid(5, 5))
	e := NewEngine()
	res1, err := e.Run(g1, 0, flooding(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := snap(res1)
	if _, err := e.Run(g2, 0, flooding(), nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := snap(res1); !reflect.DeepEqual(before, after) {
		t.Errorf("first Result mutated by the engine's second run:\nbefore: %+v\nafter:  %+v",
			before, after)
	}
}

// TestRetainNodesSeversEngineOwnership checks that RetainNodes hands the
// automata to the caller: the retained slice must survive (and keep its
// contents) across the engine's next run.
func TestRetainNodesSeversEngineOwnership(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(6))
	e := NewEngine()
	res1, err := e.Run(g, 0, flooding(), nil, Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Nodes) != g.N() {
		t.Fatalf("RetainNodes kept %d nodes, want %d", len(res1.Nodes), g.N())
	}
	kept := append([]scheme.Node(nil), res1.Nodes...)
	if _, err := e.Run(g, 0, flooding(), nil, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, n := range res1.Nodes {
		if n == nil || n != kept[i] {
			t.Fatalf("retained node %d was recycled by the next run", i)
		}
	}
}

// TestEngineRunSteadyStateAllocBudget pins the flooding hot path's
// allocation count on a reused engine. The test's flooding automaton is
// built by NewNode, one allocation per node, and sends into the engine's
// buffer, so a run allocates n plus the per-run Result/Informed/ByKind;
// the engine itself must contribute nothing once warm.
func TestEngineRunSteadyStateAllocBudget(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(64, 160, rand.New(rand.NewSource(7))))
	e := NewEngine()
	run := func() {
		if _, err := e.Run(g, 0, flooding(), nil, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine's capacities
	allocs := testing.AllocsPerRun(10, run)
	// n node constructions + Result + Informed + ByKind and a little
	// headroom; a send slice per node would add n.
	budget := float64(g.N() + 16)
	if allocs > budget {
		t.Errorf("steady-state flooding run: %.0f allocs, budget %.0f", allocs, budget)
	}
}

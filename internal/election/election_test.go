package election

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	t.Helper()
	return func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	return map[string]*graph.Graph{
		"path":     mustGraph(t)(graphgen.Path(12)),
		"cycle":    mustGraph(t)(graphgen.Cycle(13)),
		"grid":     mustGraph(t)(graphgen.Grid(4, 5)),
		"complete": mustGraph(t)(graphgen.Complete(10)),
		"random":   mustGraph(t)(graphgen.RandomConnected(30, 80, rng)),
	}
}

func TestMaxLabelFloodElectsMaximum(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := sim.Run(g, 0, MaxLabelFlood{}, nil, sim.Options{RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// The winner is the globally maximal label.
		want := g.MaxLabel()
		out := res.Nodes[0].(Decider).Outcome()
		if out.Leader != want {
			t.Errorf("%s: elected %d, want max label %d", name, out.Leader, want)
		}
	}
}

func TestMaxLabelFloodMessageEnvelope(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(12))
	res, err := sim.Run(g, 0, MaxLabelFlood{}, nil, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	// Zero advice is expensive: strictly more than the announcement-only
	// strategies, bounded by O(n·m).
	if res.Messages <= 2*g.M() {
		t.Logf("note: max-flood used %d messages (2m = %d)", res.Messages, 2*g.M())
	}
	if res.Messages > 2*g.N()*g.M() {
		t.Errorf("max-flood used %d messages, above the O(n·m) envelope", res.Messages)
	}
}

func TestMarkedFlood(t *testing.T) {
	for name, g := range testGraphs(t) {
		leader := graph.NodeID(g.N() / 2)
		advice, err := MarkOracle{}.Advise(g, leader)
		if err != nil {
			t.Fatal(err)
		}
		if advice.SizeBits() != 1 {
			t.Fatalf("%s: mark oracle size %d, want 1", name, advice.SizeBits())
		}
		res, err := sim.Run(g, leader, MarkedFlood{}, advice, sim.Options{RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		out := res.Nodes[int(leader)].(Decider).Outcome()
		if !out.IsLeader || out.Leader != g.Label(leader) {
			t.Errorf("%s: marked node outcome %+v", name, out)
		}
		if res.Messages > 2*g.M() {
			t.Errorf("%s: %d messages > 2m", name, res.Messages)
		}
	}
}

func TestMarkedTreeExactlyNMinus1(t *testing.T) {
	for name, g := range testGraphs(t) {
		leader := graph.NodeID(0)
		advice, err := TreeOracle{}.Advise(g, leader)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, leader, MarkedTree{}, advice, sim.Options{RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want, _ := TreeBound(g.N()); res.Messages != want {
			t.Errorf("%s: %d messages, want n-1 = %d", name, res.Messages, want)
		}
	}
}

func TestElectionLadderMonotone(t *testing.T) {
	// More knowledge, fewer messages: maxflood >= markedflood >= markedtree.
	g := mustGraph(t)(graphgen.Complete(16))
	flood, err := sim.Run(g, 0, MaxLabelFlood{}, nil, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	mAdvice, err := MarkOracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := sim.Run(g, 0, MarkedFlood{}, mAdvice, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	tAdvice, err := TreeOracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sim.Run(g, 0, MarkedTree{}, tAdvice, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(flood.Messages >= marked.Messages && marked.Messages >= tree.Messages) {
		t.Errorf("ladder broken: flood=%d marked=%d tree=%d",
			flood.Messages, marked.Messages, tree.Messages)
	}
	if want, _ := TreeBound(g.N()); tree.Messages != want {
		t.Errorf("tree election used %d messages", tree.Messages)
	}
}

func TestVerifyCatchesBadRuns(t *testing.T) {
	if err := Verify(nil); err == nil {
		t.Error("empty node list accepted")
	}
	// A silent run leaves non-leader nodes undecided.
	g := mustGraph(t)(graphgen.Path(4))
	advice, err := MarkOracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the advice so nobody is marked: all nodes stay undecided.
	res, err := sim.Run(g, 0, MarkedFlood{}, sim.Advice{}, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Nodes); err == nil {
		t.Error("undecided run verified")
	}
	_ = advice
}

func TestElectionUnderSchedulers(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(25, 60, rand.New(rand.NewSource(3))))
	advice, err := TreeOracle{}.Advise(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range sim.Schedulers(17) {
		res, err := sim.Run(g, 5, MarkedTree{}, advice, sim.Options{Scheduler: factory(), RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want, _ := TreeBound(g.N()); res.Messages != want {
			t.Errorf("%s: %d messages", name, res.Messages)
		}
	}
	// Max-flood must elect the same maximum under every order.
	for name, factory := range sim.Schedulers(18) {
		res, err := sim.Run(g, 0, MaxLabelFlood{}, nil, sim.Options{Scheduler: factory(), RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if out := res.Nodes[0].(Decider).Outcome(); out.Leader != g.MaxLabel() {
			t.Errorf("%s: elected %d", name, out.Leader)
		}
	}
}

func BenchmarkMarkedTreeElection(b *testing.B) {
	g, err := graphgen.RandomConnected(512, 2048, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	advice, err := TreeOracle{}.Advise(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, 0, MarkedTree{}, advice, sim.Options{RetainNodes: true})
		if err != nil {
			b.Fatal(err)
		}
		if want, _ := TreeBound(g.N()); res.Messages != want {
			b.Fatal("wrong message count")
		}
	}
}

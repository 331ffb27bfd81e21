package bfstree

import (
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/catalog"
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
	rng := rand.New(rand.NewSource(16))
	return map[string]*graph.Graph{
		"path":      mustGraph(t)(graphgen.Path(12)),
		"cycle":     mustGraph(t)(graphgen.Cycle(11)),
		"grid":      mustGraph(t)(graphgen.Grid(5, 5)),
		"hypercube": mustGraph(t)(graphgen.Hypercube(5)),
		"random":    mustGraph(t)(graphgen.RandomConnected(30, 80, rng)),
		"complete":  mustGraph(t)(graphgen.Complete(10)),
	}
}

func TestFloodBuildsBFSTreeSync(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := sim.Run(g, 0, Flood{}, nil, sim.Options{RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(g, 0, res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Under FIFO (synchronous) delivery, each node announces at most
		// once: <= 2m messages.
		if res.Messages > 2*g.M() {
			t.Errorf("%s: %d messages > 2m under FIFO", name, res.Messages)
		}
	}
}

func TestFloodCorrectUnderAdversarialOrders(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(30, 90, rand.New(rand.NewSource(4))))
	for name, factory := range sim.Schedulers(8) {
		res, err := sim.Run(g, 3, Flood{}, nil, sim.Options{
			Scheduler:   factory(),
			RetainNodes: true,
			MaxMessages: catalog.MessageBudget(g),
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := Verify(g, 3, res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAsynchronyCostsMessages(t *testing.T) {
	// LIFO delivery forces distance corrections: messages exceed the
	// synchronous count on a graph with long detours.
	g := mustGraph(t)(graphgen.Lollipop(12, 20))
	fifo, err := sim.Run(g, 0, Flood{}, nil, sim.Options{Scheduler: sim.NewFIFO(), RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	lifo, err := sim.Run(g, 0, Flood{}, nil, sim.Options{
		Scheduler:   sim.NewLIFO(),
		RetainNodes: true,
		MaxMessages: catalog.MessageBudget(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 0, fifo.Nodes); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 0, lifo.Nodes); err != nil {
		t.Fatal(err)
	}
	if lifo.Messages < fifo.Messages {
		t.Errorf("LIFO (%d msgs) cheaper than FIFO (%d)", lifo.Messages, fifo.Messages)
	}
}

func TestOracleSilentZeroMessages(t *testing.T) {
	for name, g := range testGraphs(t) {
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.Run(g, 0, Silent{}, advice, sim.Options{RetainNodes: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Messages != 0 {
			t.Errorf("%s: oracle-fed protocol sent %d messages", name, res.Messages)
		}
		if err := Verify(g, 0, res.Nodes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDecodeAdviceRoundTrip(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(4, 4))
	advice, err := Oracle{}.Advise(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.BFS(5)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		d, p, err := DecodeAdvice(advice[v])
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		if d != truth.Dist[v] {
			t.Errorf("node %d: dist %d, want %d", v, d, truth.Dist[v])
		}
		if v == 5 {
			if p != -1 {
				t.Errorf("source parent = %d", p)
			}
		} else if p != truth.ParentPort[v] {
			t.Errorf("node %d: parent %d, want %d", v, p, truth.ParentPort[v])
		}
	}
}

func TestDecodeAdviceRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeAdvice(bitstring.FromBits(0, 1, 1)); err == nil {
		t.Error("garbage accepted")
	}
	var w bitstring.Writer
	w.AppendDoubled(5)
	w.WriteFixed(0, 5)
	w.WriteFixed(0, 3) // ragged
	if _, _, err := DecodeAdvice(w.String()); err == nil {
		t.Error("ragged advice accepted")
	}
}

func TestVerifyCatchesWrongOutputs(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(4))
	// Silent with no advice leaves everyone undecided.
	res, err := sim.Run(g, 0, Silent{}, nil, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 0, res.Nodes); err == nil {
		t.Error("undecided outputs verified")
	}
	if err := Verify(g, 0, nil); err == nil {
		t.Error("missing automata verified")
	}
}

func TestOracleRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(2, 3)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Oracle{}).Advise(g, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func BenchmarkBFSFlood(b *testing.B) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, 0, Flood{}, nil, sim.Options{RetainNodes: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Messages == 0 {
			b.Fatal("no messages")
		}
	}
}

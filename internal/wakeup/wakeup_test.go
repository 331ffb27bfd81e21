package wakeup

import (
	"math"
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
	"oraclesize/internal/trace"
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
	rng := rand.New(rand.NewSource(1))
	s, err := graphgen.RandomEdgeTuple(12, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := graphgen.SubdividedComplete(12, s)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":       mustGraph(t)(graphgen.Path(20)),
		"cycle":      mustGraph(t)(graphgen.Cycle(21)),
		"star":       mustGraph(t)(graphgen.Star(15)),
		"grid":       mustGraph(t)(graphgen.Grid(5, 6)),
		"hypercube":  mustGraph(t)(graphgen.Hypercube(5)),
		"complete":   mustGraph(t)(graphgen.Complete(12)),
		"random":     mustGraph(t)(graphgen.RandomConnected(40, 100, rng)),
		"subdivided": sub,
	}
}

func TestDecodeChildPortsRoundTrip(t *testing.T) {
	kids := []spantree.Child{{Node: 1, Port: 3}, {Node: 2, Port: 0}, {Node: 3, Port: 7}}
	s := encodeChildPorts(kids, 4)
	ports, err := DecodeChildPorts(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 7}
	if len(ports) != len(want) {
		t.Fatalf("ports = %v", ports)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Errorf("ports[%d] = %d, want %d", i, ports[i], want[i])
		}
	}
	// Empty advice decodes to a leaf.
	var empty bitstring.String
	ports, err = DecodeChildPorts(empty)
	if err != nil || len(ports) != 0 {
		t.Errorf("empty advice: %v, %v", ports, err)
	}
}

func TestDecodeChildPortsRejectsMalformed(t *testing.T) {
	// Header says width 4 but payload is 6 bits.
	var w bitstring.Writer
	w.AppendDoubled(4)
	w.WriteFixed(0, 6)
	if _, err := DecodeChildPorts(w.String()); err == nil {
		t.Error("ragged payload accepted")
	}
	// Garbage header.
	if _, err := DecodeChildPorts(bitstring.FromBits(0, 1)); err == nil {
		t.Error("garbage header accepted")
	}
	// Width zero is impossible (doubled code cannot encode an empty
	// representation), but an absurd width must be rejected.
	var w2 bitstring.Writer
	w2.AppendDoubled(63)
	w2.WriteFixed(0, 63)
	if _, err := DecodeChildPorts(w2.String()); err == nil {
		t.Error("width 63 accepted")
	}
}

func TestWakeupExactlyNMinus1Messages(t *testing.T) {
	for name, g := range testGraphs(t) {
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.AllInformed {
			t.Errorf("%s: wakeup incomplete", name)
		}
		if want, _ := Bound(g.N()); res.Messages != want {
			t.Errorf("%s: %d messages, want exactly n-1 = %d", name, res.Messages, want)
		}
	}
}

func TestWakeupOracleSizeBound(t *testing.T) {
	// Theorem 2.1: size <= n·ceil(log n) + O(n log log n), in the exact
	// form Bound states for this encoding.
	for name, g := range testGraphs(t) {
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := g.N()
		_, bound := Bound(n)
		if got := advice.SizeBits(); got > bound {
			t.Errorf("%s: oracle size %d exceeds bound %d", name, got, bound)
		}
		// And the looser asymptotic form of the theorem.
		loose := int(float64(n)*math.Log2(float64(n))) + 6*n + 64
		if got := advice.SizeBits(); got > loose {
			t.Errorf("%s: oracle size %d exceeds n log n + O(n) = %d", name, got, loose)
		}
	}
}

func TestWakeupTrafficStaysOnTree(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(10))
	o := Oracle{}
	advice, err := o.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := o.buildTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	if err := trace.CheckTrafficWithinEdges(rec.Events(), tree.Edges()); err != nil {
		t.Error(err)
	}
	if err := trace.CheckWakeupLegality(rec.Events(), 0); err != nil {
		t.Error(err)
	}
	if err := trace.CheckPerEdgeDirectionalUniqueness(rec.Events(), scheme.KindM); err != nil {
		t.Error(err)
	}
}

func TestWakeupAllTreeKinds(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(60, 150, rand.New(rand.NewSource(2))))
	for _, kind := range []TreeKind{TreeBFS, TreeDFS, TreeLight} {
		advice, err := Oracle{Tree: kind}.Advise(g, 3)
		if err != nil {
			t.Errorf("kind %d: %v", kind, err)
			continue
		}
		res, err := sim.Run(g, 3, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Errorf("kind %d: %v", kind, err)
			continue
		}
		if want, _ := Bound(g.N()); !res.AllInformed || res.Messages != want {
			t.Errorf("kind %d: complete=%v messages=%d", kind, res.AllInformed, res.Messages)
		}
	}
}

func TestWakeupUnderAllSchedulers(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(7, 7))
	advice, err := Oracle{}.Advise(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range sim.Schedulers(5) {
		res, err := sim.Run(g, 10, Algorithm{}, advice, sim.Options{Scheduler: factory(), EnforceWakeup: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want, _ := Bound(g.N()); !res.AllInformed || res.Messages != want {
			t.Errorf("%s: complete=%v messages=%d", name, res.AllInformed, res.Messages)
		}
	}
}

// TestWakeupConcurrent holds the goroutines engine's runs to the checks
// TestWakeupTrafficStaysOnTree makes of the queue engine's: every trace is
// a legal wakeup whose messages cross only BFS tree edges, each once.
func TestWakeupConcurrent(t *testing.T) {
	g := mustGraph(t)(graphgen.Hypercube(6))
	o := Oracle{}
	advice, err := o.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := o.buildTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := &trace.Recorder{}
		res, err := sim.RunConcurrent(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Bound(g.N()); !res.AllInformed || res.Messages != want {
			t.Fatalf("run %d: complete=%v messages=%d", i, res.AllInformed, res.Messages)
		}
		if err := trace.CheckWakeupLegality(rec.Events(), 0); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
		if err := trace.CheckTrafficWithinEdges(rec.Events(), tree.Edges()); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
		if err := trace.CheckPerEdgeDirectionalUniqueness(rec.Events(), scheme.KindM); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}

func TestWakeupIsAnonymous(t *testing.T) {
	// Relabeling nodes must not change behaviour: the scheme never reads
	// labels. Run on a graph with huge random labels.
	b := graph.NewBuilder(6)
	labels := []int64{901, 17, 40000, 5, 123456789, 77}
	for i, l := range labels {
		b.SetLabel(graph.NodeID(i), l)
	}
	for i := 0; i < 5; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Bound(g.N()); !res.AllInformed || res.Messages != want {
		t.Errorf("complete=%v messages=%d", res.AllInformed, res.Messages)
	}
}

func TestFloodingWakeup(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(6, 6))
	res, err := sim.Run(g, 0, Flooding{}, nil, sim.Options{EnforceWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("flooding wakeup incomplete")
	}
	if res.Messages < g.N()-1 || res.Messages > 2*g.M() {
		t.Errorf("messages = %d outside [n-1, 2m]", res.Messages)
	}
}

func TestBudgetedOracleFullBudgetMatchesExact(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(50, 120, rand.New(rand.NewSource(7))))
	full, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A budget able to hold everything (advice + 1 marker bit per node).
	budget := full.SizeBits() + g.N()
	advice, err := BudgetedOracle{BudgetBits: budget}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{EnforceWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	if want, _ := Bound(g.N()); res.Messages != want {
		t.Errorf("full budget: %d messages, want n-1 = %d", res.Messages, want)
	}
}

func TestBudgetedOracleZeroBudgetFloods(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(12))
	advice, err := BudgetedOracle{BudgetBits: 0}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if advice.SizeBits() != 0 {
		t.Fatalf("zero budget produced %d bits", advice.SizeBits())
	}
	res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{EnforceWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("incomplete")
	}
	if exact, _ := Bound(g.N()); res.Messages <= exact {
		t.Errorf("zero advice used only %d messages on K_12", res.Messages)
	}
}

func TestBudgetedMessagesMonotone(t *testing.T) {
	// More advice must never be much worse; the curve from zero to full
	// budget interpolates between flooding and n-1. We check the endpoints
	// dominate and completion always holds.
	g := mustGraph(t)(graphgen.RandomConnected(60, 400, rand.New(rand.NewSource(11))))
	full, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxBudget := full.SizeBits() + g.N()
	var prevAtFull int
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		budget := int(frac * float64(maxBudget))
		advice, err := BudgetedOracle{BudgetBits: budget}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if advice.SizeBits() > budget {
			t.Errorf("budget %d exceeded: %d bits", budget, advice.SizeBits())
		}
		res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("budget %d: incomplete", budget)
		}
		if res.Messages < g.N()-1 || res.Messages > 2*g.M() {
			t.Errorf("budget %d: %d messages outside [n-1, 2m]", budget, res.Messages)
		}
		prevAtFull = res.Messages
	}
	if want, _ := Bound(g.N()); prevAtFull != want {
		t.Errorf("full budget run used %d messages, want %d", prevAtFull, want)
	}
}

func TestFullMapWakeup(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(30, 70, rand.New(rand.NewSource(3))))
	advice, err := oracle.FullMap{}.Advise(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 4, FullMapAlgorithm{}, advice, sim.Options{EnforceWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	if res.Messages != g.N()-1 {
		t.Errorf("messages = %d, want n-1 = %d", res.Messages, g.N()-1)
	}
	// The full map costs far more bits than the Theorem 2.1 oracle.
	treeAdvice, err := Oracle{}.Advise(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if advice.SizeBits() <= treeAdvice.SizeBits() {
		t.Errorf("full map (%d bits) not larger than tree oracle (%d bits)",
			advice.SizeBits(), treeAdvice.SizeBits())
	}
}

func TestWakeupOnSubdividedFamilyFindsHiddenNodes(t *testing.T) {
	// The lower-bound family: hidden degree-2 nodes inside subdivided
	// edges. With the full oracle the scheme still completes in n-1.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		base := 10 + trial
		s, err := graphgen.RandomEdgeTuple(base, base, rng)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graphgen.SubdividedComplete(base, s)
		if err != nil {
			t.Fatal(err)
		}
		src, ok := g.NodeByLabel(1)
		if !ok {
			t.Fatal("label 1 missing")
		}
		advice, err := Oracle{}.Advise(g, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, src, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Bound(g.N()); !res.AllInformed || res.Messages != want {
			t.Errorf("trial %d: complete=%v messages=%d n-1=%d", trial, res.AllInformed, res.Messages, want)
		}
	}
}

func BenchmarkWakeupOracleAdvise(b *testing.B) {
	g, err := graphgen.RandomConnected(512, 2048, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Oracle{}).Advise(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWakeupRun(b *testing.B) {
	g, err := graphgen.RandomConnected(512, 2048, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllInformed {
			b.Fatal("incomplete")
		}
	}
}

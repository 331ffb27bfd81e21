package broadcast

import (
	"errors"
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
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
	rng := rand.New(rand.NewSource(6))
	s, err := graphgen.RandomEdgeTuple(12, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := graphgen.SubdividedComplete(12, s)
	if err != nil {
		t.Fatal(err)
	}
	sGad, err := graphgen.RandomEdgeTuple(16, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gad, err := graphgen.CliqueGadget(16, 4, sGad, graphgen.RandomGadgetPairs(4, 4, rng))
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
		"gadget":     gad,
	}
}

func TestAssignedEndpoint(t *testing.T) {
	e := graph.Edge{U: 2, V: 7, PU: 3, PV: 1}
	x, p := AssignedEndpoint(e)
	if x != 7 || p != 1 {
		t.Errorf("AssignedEndpoint = %d:%d, want 7:1", x, p)
	}
	// Ties go to the canonical smaller endpoint.
	tie := graph.Edge{U: 9, V: 4, PU: 2, PV: 2}
	x, p = AssignedEndpoint(tie)
	if x != 4 || p != 2 {
		t.Errorf("tie AssignedEndpoint = %d:%d, want 4:2", x, p)
	}
}

func TestDecodePortsRoundTrip(t *testing.T) {
	codec, err := bitstring.CodecByName("doubled")
	if err != nil {
		t.Fatal(err)
	}
	var w bitstring.Writer
	for _, p := range []uint64{0, 3, 17, 1} {
		codec.Append(&w, p)
	}
	ports, err := DecodePorts(w.String(), codec)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 17, 1}
	if len(ports) != len(want) {
		t.Fatalf("ports = %v", ports)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Errorf("ports[%d] = %d", i, ports[i])
		}
	}
}

func TestBroadcastCompletesLinearMessages(t *testing.T) {
	for name, g := range testGraphs(t) {
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		n := g.N()
		if !res.AllInformed {
			t.Errorf("%s: broadcast incomplete", name)
		}
		// Claim 3.2: M crosses each tree edge at most twice, hello at most
		// once: <= 3(n-1) messages.
		if bound, _ := Bound(n); res.Messages > bound {
			t.Errorf("%s: %d messages > 3(n-1) = %d", name, res.Messages, bound)
		}
		if res.ByKind[scheme.KindM] > 2*(n-1) {
			t.Errorf("%s: %d M-messages > 2(n-1)", name, res.ByKind[scheme.KindM])
		}
		if res.ByKind[scheme.KindHello] > n-1 {
			t.Errorf("%s: %d hellos > n-1", name, res.ByKind[scheme.KindHello])
		}
	}
}

func TestBroadcastOracleSizeLinear(t *testing.T) {
	// Theorem 3.1: the oracle has size O(n); with the doubled code each
	// weight w costs 2#2(w)+2 bits and Claim 3.1 gives Σ#2 <= 4n, so the
	// size is at most 2·4n + 2(n-1) = 10n-2.
	for name, g := range testGraphs(t) {
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, bound := Bound(g.N()); advice.SizeBits() > bound {
			t.Errorf("%s: oracle size %d > 10n-2 = %d", name, advice.SizeBits(), bound)
		}
	}
}

func TestBroadcastTrafficStaysOnTree(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(14))
	edges, err := spantree.Light(g)
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.adviseForTree(g, edges)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	if err := trace.CheckTrafficWithinEdges(rec.Events(), edges); err != nil {
		t.Error(err)
	}
	// M never crosses the same directed edge twice.
	if err := trace.CheckPerEdgeDirectionalUniqueness(rec.Events(), scheme.KindM); err != nil {
		t.Error(err)
	}
	// Hellos cross each edge in one direction only (one endpoint assigned).
	if err := trace.CheckPerEdgeDirectionalUniqueness(rec.Events(), scheme.KindHello); err != nil {
		t.Error(err)
	}
}

func TestBroadcastIsNotAValidWakeup(t *testing.T) {
	// Scheme B's spontaneous hellos violate the wakeup constraint — the
	// heart of the paper's separation — on both engines.
	g := mustGraph(t)(graphgen.Complete(8))
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{EnforceWakeup: true}
	if _, err := sim.Run(g, 0, Algorithm{}, advice, opts); !errors.Is(err, sim.ErrWakeupViolation) {
		t.Errorf("queue engine: err = %v, want %v", err, sim.ErrWakeupViolation)
	}
	if _, err := sim.RunConcurrent(g, 0, Algorithm{}, advice, opts); !errors.Is(err, sim.ErrWakeupViolation) {
		t.Errorf("goroutines engine: err = %v, want %v", err, sim.ErrWakeupViolation)
	}
}

func TestBroadcastAllSchedulers(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(60, 200, rand.New(rand.NewSource(14))))
	advice, err := Oracle{}.Advise(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range sim.Schedulers(3) {
		res, err := sim.Run(g, 7, Algorithm{}, advice, sim.Options{Scheduler: factory()})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.AllInformed {
			t.Errorf("%s: incomplete", name)
		}
		if bound, _ := Bound(g.N()); res.Messages > bound {
			t.Errorf("%s: %d messages > 3(n-1)", name, res.Messages)
		}
	}
}

// TestBroadcastConcurrent holds the goroutines engine's runs to the
// message bound and to the checks TestBroadcastTrafficStaysOnTree makes
// of the queue engine's: traffic stays on the light tree, and neither M
// nor a hello crosses a directed edge twice.
func TestBroadcastConcurrent(t *testing.T) {
	for _, g := range []*graph.Graph{mustGraph(t)(graphgen.Hypercube(6)), mustGraph(t)(graphgen.Complete(14))} {
		edges, err := spantree.Light(g)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := Oracle{}.adviseForTree(g, edges)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			rec := &trace.Recorder{}
			res, err := sim.RunConcurrent(g, 0, Algorithm{}, advice, sim.Options{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("n=%d run %d incomplete", g.N(), i)
			}
			if bound, _ := Bound(g.N()); res.Messages > bound {
				t.Fatalf("n=%d run %d: %d messages > 3(n-1)", g.N(), i, res.Messages)
			}
			if err := trace.CheckTrafficWithinEdges(rec.Events(), edges); err != nil {
				t.Errorf("n=%d run %d: %v", g.N(), i, err)
			}
			for _, kind := range []scheme.Kind{scheme.KindM, scheme.KindHello} {
				if err := trace.CheckPerEdgeDirectionalUniqueness(rec.Events(), kind); err != nil {
					t.Errorf("n=%d run %d: %v", g.N(), i, err)
				}
			}
		}
	}
}

func TestBroadcastEveryCodec(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(16))
	for _, codec := range bitstring.Codecs() {
		codec := codec
		t.Run(codec.Name, func(t *testing.T) {
			advice, err := Oracle{Codec: &codec}.Advise(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(g, 0, Algorithm{Codec: &codec}, advice, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Error("incomplete")
			}
			if bound, _ := Bound(g.N()); res.Messages > bound {
				t.Errorf("%d messages > 3(n-1)", res.Messages)
			}
		})
	}
}

func TestBroadcastEverySource(t *testing.T) {
	// The oracle is source-independent; the scheme must work from any
	// source with the same advice.
	g := mustGraph(t)(graphgen.Grid(4, 4))
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for src := graph.NodeID(0); int(src) < g.N(); src++ {
		res, err := sim.Run(g, src, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if !res.AllInformed {
			t.Errorf("source %d: incomplete", src)
		}
		if bound, _ := Bound(g.N()); res.Messages > bound {
			t.Errorf("source %d: %d messages", src, res.Messages)
		}
	}
}

func TestBroadcastAnonymous(t *testing.T) {
	b := graph.NewBuilder(5)
	for i, l := range []int64{999, 4, 1234567, 42, 7} {
		b.SetLabel(graph.NodeID(i), l)
	}
	for i := 0; i < 4; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	b.AddEdgeAuto(0, 4)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 1, Algorithm{}, advice, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("incomplete")
	}
}

func TestFloodingBroadcast(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(15))
	res, err := sim.Run(g, 0, Flooding{}, nil, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("incomplete")
	}
	if res.Messages < g.M() || res.Messages > 2*g.M() {
		t.Errorf("flooding messages = %d, m = %d", res.Messages, g.M())
	}
}

func TestBudgetedFullBudgetMatchesSchemeB(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(50, 200, rand.New(rand.NewSource(20))))
	full, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.SizeBits() + g.N() // marker bit per node
	advice, err := BudgetedOracle{BudgetBits: budget}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("incomplete")
	}
	if bound, _ := Bound(g.N()); res.Messages > bound {
		t.Errorf("full budget: %d messages > 3(n-1) = %d", res.Messages, bound)
	}
}

func TestBudgetedZeroBudgetStillCompletes(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(12))
	advice, err := BudgetedOracle{BudgetBits: 0}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if advice.SizeBits() != 0 {
		t.Fatalf("zero budget produced %d bits", advice.SizeBits())
	}
	res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("incomplete")
	}
	// With zero advice every node brute-forces: far more than 3(n-1).
	if bound, _ := Bound(g.N()); res.Messages <= bound {
		t.Errorf("zero advice run suspiciously cheap: %d messages", res.Messages)
	}
}

func TestBudgetedSweepCompletesEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	s, err := graphgen.RandomEdgeTuple(24, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphgen.CliqueGadget(24, 4, s, graphgen.RandomGadgetPairs(6, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxBudget := full.SizeBits() + g.N()
	prev := -1
	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		budget := int(frac * float64(maxBudget))
		advice, err := BudgetedOracle{BudgetBits: budget}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, 0, HybridAlgorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("budget %d: incomplete", budget)
		}
		prev = res.Messages
	}
	if bound, _ := Bound(g.N()); prev > bound {
		t.Errorf("full budget: %d messages > 3(n-1)", prev)
	}
}

func BenchmarkBroadcastOracleAdvise(b *testing.B) {
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

func BenchmarkSchemeBRun(b *testing.B) {
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

func TestBFSTreeBroadcastFasterButCostlier(t *testing.T) {
	// The broadcast knowledge/time trade-off: a BFS tree completes in
	// ~eccentricity rounds but may cost far more advice bits than the
	// light tree, whose depth is unconstrained.
	g := mustGraph(t)(graphgen.Complete(64))
	light, err := Oracle{Tree: TreeLight}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := Oracle{Tree: TreeBFS}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	lightRes, err := sim.Run(g, 0, Algorithm{}, light, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bfsRes, err := sim.Run(g, 0, Algorithm{}, bfs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !lightRes.AllInformed || !bfsRes.AllInformed {
		t.Fatal("incomplete")
	}
	// On K_n the light tree degenerates to a deep chain (weights all 0
	// along the rotation) while the BFS tree is a star.
	if bfsRes.Rounds >= lightRes.Rounds {
		t.Errorf("BFS tree rounds %d not below light tree rounds %d", bfsRes.Rounds, lightRes.Rounds)
	}
	if bfs.SizeBits() <= light.SizeBits() {
		t.Errorf("BFS advice %d bits not above light advice %d", bfs.SizeBits(), light.SizeBits())
	}
	// Both stay within the linear message bound.
	for name, res := range map[string]*sim.Result{"light": lightRes, "bfs": bfsRes} {
		if bound, _ := Bound(g.N()); res.Messages > bound {
			t.Errorf("%s: %d messages > 3(n-1)", name, res.Messages)
		}
	}
}

func TestBFSTreeBroadcastAllFamilies(t *testing.T) {
	for name, g := range testGraphs(t) {
		advice, err := Oracle{Tree: TreeBFS}.Advise(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if bound, _ := Bound(g.N()); !res.AllInformed || res.Messages > bound {
			t.Errorf("%s: complete=%v messages=%d", name, res.AllInformed, res.Messages)
		}
	}
}

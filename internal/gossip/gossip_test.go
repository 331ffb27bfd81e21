package gossip

import (
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
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

func TestDecodeRoleRoundTrip(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(4, 4))
	advice, err := Oracle{Root: 5}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	childCount := 0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		role, err := DecodeRole(advice[v])
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		if role.IsRoot {
			roots++
			if role.ParentPort != -1 {
				t.Error("root has a parent port")
			}
		} else {
			if role.ParentPort < 0 || role.ParentPort >= g.Degree(v) {
				t.Errorf("node %d: parent port %d out of range", v, role.ParentPort)
			}
		}
		childCount += len(role.ChildPorts)
	}
	if roots != 1 {
		t.Errorf("%d roots", roots)
	}
	if childCount != g.N()-1 {
		t.Errorf("total children %d, want %d", childCount, g.N()-1)
	}
}

func TestDecodeRoleRejectsGarbage(t *testing.T) {
	if _, err := DecodeRole(bitstring.FromBits(0, 1)); err == nil {
		t.Error("garbage accepted")
	}
	var w bitstring.Writer
	w.AppendDoubled(4)
	w.WriteBit(false)
	w.WriteFixed(0, 4)
	w.WriteFixed(0, 3) // ragged tail
	if _, err := DecodeRole(w.String()); err == nil {
		t.Error("ragged advice accepted")
	}
}

// runVerified gossips on g over the root-0 tree oracle and reports
// whether Verify accepts every node's value set.
func runVerified(g *graph.Graph, opts sim.Options) (*sim.Result, bool, error) {
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		return nil, false, err
	}
	opts.RetainNodes = true
	res, err := sim.Run(g, 0, Algorithm{}, advice, opts)
	if err != nil {
		return nil, false, err
	}
	return res, Verify(res.Nodes) == nil, nil
}

func TestGossipExactly2NMinus2Messages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := map[string]*graph.Graph{
		"path":      mustGraph(t)(graphgen.Path(20)),
		"star":      mustGraph(t)(graphgen.Star(16)),
		"grid":      mustGraph(t)(graphgen.Grid(5, 5)),
		"hypercube": mustGraph(t)(graphgen.Hypercube(5)),
		"random":    mustGraph(t)(graphgen.RandomConnected(40, 100, rng)),
		"complete":  mustGraph(t)(graphgen.Complete(12)),
	}
	for name, g := range graphs {
		res, verified, err := runVerified(g, sim.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !verified {
			t.Errorf("%s: some node missed values", name)
		}
		want, _ := Bound(g.N())
		if res.Messages != want {
			t.Errorf("%s: %d messages, want exactly %d", name, res.Messages, want)
		}
		up, down := res.ByKind[scheme.KindUp], res.ByKind[scheme.KindDown]
		if up != g.N()-1 || down != g.N()-1 {
			t.Errorf("%s: up=%d down=%d, want %d each", name, up, down, g.N()-1)
		}
	}
}

func TestGossipAllSchedulers(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(30, 70, rand.New(rand.NewSource(4))))
	for name, factory := range sim.Schedulers(11) {
		res, verified, err := runVerified(g, sim.Options{Scheduler: factory()})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !verified {
			t.Errorf("%s: incomplete value sets", name)
		}
		if want, _ := Bound(g.N()); res.Messages != want {
			t.Errorf("%s: %d messages", name, res.Messages)
		}
	}
}

func TestGossipSingleNode(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, verified, err := runVerified(g, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !verified || res.Messages != 0 {
		t.Errorf("verified=%v messages=%d", verified, res.Messages)
	}
}

func TestGossipOracleSizeThetaNLogN(t *testing.T) {
	// The gossip oracle is the wakeup oracle plus a parent port and root
	// marker per node: still Θ(n log n), and within a small constant of
	// n·ceil(log n) (the per-node doubled-code header adds ~12 bits).
	for _, n := range []int{64, 256, 1024} {
		g, err := graphgen.RandomConnected(n, 3*n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		advice, err := Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := n * oracle.FieldWidth(n)
		if advice.SizeBits() < ref/2 || advice.SizeBits() > 5*ref {
			t.Errorf("n=%d: gossip oracle %d bits vs reference %d", n, advice.SizeBits(), ref)
		}
		if _, want := Bound(g.N()); advice.SizeBits() != want {
			t.Errorf("n=%d: gossip oracle %d bits, Bound says exactly %d", n, advice.SizeBits(), want)
		}
	}
}

func TestGossipArbitraryLabels(t *testing.T) {
	b := graph.NewBuilder(5)
	labels := []int64{100, 7, 3000, 42, 9}
	for i, l := range labels {
		b.SetLabel(graph.NodeID(i), l)
	}
	for i := 0; i < 4; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{Root: 2}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range res.Nodes {
		gn := nd.(*node)
		vals := gn.Values()
		if len(vals) != 5 {
			t.Fatalf("node %d learned %d values: %v", i, len(vals), vals)
		}
		want := []int64{7, 9, 42, 100, 3000}
		for j := range want {
			if vals[j] != want[j] {
				t.Fatalf("node %d values = %v", i, vals)
			}
		}
	}
}

func TestGossipConcurrent(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(6, 6))
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := sim.RunConcurrent(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Bound(g.N()); res.Messages != want {
			t.Fatalf("run %d: %d messages, want %d", i, res.Messages, want)
		}
	}
}

func BenchmarkGossip(b *testing.B) {
	g, err := graphgen.RandomConnected(512, 2048, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, verified, err := runVerified(g, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !verified {
			b.Fatal("incomplete")
		}
	}
}

func TestGossipCorruptAdviceDoesNotPanic(t *testing.T) {
	// A node with garbage advice goes inert; the run stalls rather than
	// panicking or sending junk.
	g := mustGraph(t)(graphgen.Path(4))
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	advice[2] = bitstring.FromBits(0, 1) // malformed
	res, err := sim.Run(g, 0, Algorithm{}, advice, sim.Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if bound, _ := Bound(g.N()); res.Messages > bound {
		t.Errorf("corrupt run sent %d messages", res.Messages)
	}
	if err := Verify(res.Nodes); err == nil {
		t.Error("Verify accepted a stalled run")
	}
	if err := Verify(nil); err == nil {
		t.Error("Verify accepted a run without retained nodes")
	}
}

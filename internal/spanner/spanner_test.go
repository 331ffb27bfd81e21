package spanner

import (
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/broadcast"
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

func TestKeepAllIsIdentity(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(5, 5))
	out, err := Build(g, nil, KeepAll{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Edges) != g.M() {
		t.Errorf("kept %d edges, want all %d", len(out.Edges), g.M())
	}
	if !out.Connected || out.Stretch != 1 {
		t.Errorf("connected=%v stretch=%v", out.Connected, out.Stretch)
	}
}

func TestLightTreeSelectsSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := map[string]*graph.Graph{
		"complete":  mustGraph(t)(graphgen.Complete(16)),
		"grid":      mustGraph(t)(graphgen.Grid(5, 5)),
		"hypercube": mustGraph(t)(graphgen.Hypercube(5)),
		"random":    mustGraph(t)(graphgen.RandomConnected(40, 200, rng)),
	}
	for name, g := range graphs {
		advice, err := Advice(g)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Build(g, advice, LightTree{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Edges) != g.N()-1 {
			t.Errorf("%s: kept %d edges, want n-1 = %d", name, len(out.Edges), g.N()-1)
		}
		if !out.Connected {
			t.Errorf("%s: output disconnected", name)
		}
		if out.Stretch < 1 {
			t.Errorf("%s: stretch %v < 1", name, out.Stretch)
		}
		// The advice is O(n) bits: Theorem 3.1's 10n-2.
		var a sim.Advice = advice
		if _, bound := broadcast.Bound(g.N()); a.SizeBits() > bound {
			t.Errorf("%s: advice %d bits > 10n-2 = %d", name, a.SizeBits(), bound)
		}
	}
}

func TestLightTreeOnTreeIsLossless(t *testing.T) {
	g := mustGraph(t)(graphgen.DAryTree(31, 2))
	advice, err := Advice(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Build(g, advice, LightTree{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Edges) != g.M() || out.Stretch != 1 {
		t.Errorf("tree input: edges=%d stretch=%v", len(out.Edges), out.Stretch)
	}
}

func TestBuildRejectsBadSelector(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(4))
	if _, err := Build(g, nil, badSelector{}); err == nil {
		t.Error("invalid port accepted")
	}
}

type badSelector struct{}

func (badSelector) Name() string { return "bad" }
func (badSelector) Keep(bitstring.String, int) ([]int, error) {
	return []int{42}, nil
}

func TestStretchGrowsWhenEdgesDrop(t *testing.T) {
	// On a cycle, the light tree is a path: stretch n-1.
	g := mustGraph(t)(graphgen.Cycle(12))
	advice, err := Advice(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Build(g, advice, LightTree{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stretch != float64(g.N()-1) {
		t.Errorf("cycle stretch = %v, want %d", out.Stretch, g.N()-1)
	}
}

func BenchmarkLightTreeSpanner(b *testing.B) {
	g, err := graphgen.RandomConnected(128, 512, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	advice, err := Advice(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Build(g, advice, LightTree{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Connected {
			b.Fatal("disconnected")
		}
	}
}

package oracle

import (
	"math"
	"math/rand"
	"testing"

	"oraclesize/internal/bitstring"
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

func TestEmptyOracle(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(3, 3))
	advice, err := Empty{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if advice.SizeBits() != 0 {
		t.Errorf("empty oracle size = %d", advice.SizeBits())
	}
	s := Stats(advice)
	if s.TotalBits != 0 || s.NonEmptyNodes != 0 || s.MaxNodeBits != 0 {
		t.Errorf("stats = %+v", s)
	}
	for v := 0; v < g.N(); v++ {
		if a := advice.Of(graph.NodeID(v)); a.Len() != 0 {
			t.Errorf("node %d gets %d advice bits", v, a.Len())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Empty{}.Advise(g, 0) }); allocs != 0 {
		t.Errorf("Empty.Advise allocates %v times, want 0", allocs)
	}
}

func TestStats(t *testing.T) {
	a := sim.Advice{
		0: bitstring.FromBits(1, 0, 1),
		1: bitstring.FromBits(0),
		2: bitstring.String{},
	}
	s := Stats(a)
	if s.TotalBits != 4 || s.MaxNodeBits != 3 || s.NonEmptyNodes != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEncodeDecodeGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*graph.Graph{
		mustGraph(t)(graphgen.Path(2)),
		mustGraph(t)(graphgen.Cycle(7)),
		mustGraph(t)(graphgen.Star(9)),
		mustGraph(t)(graphgen.Grid(4, 5)),
		mustGraph(t)(graphgen.Complete(8)),
		mustGraph(t)(graphgen.RandomConnected(25, 60, rng)),
	}
	for i, g := range graphs {
		enc := EncodeGraph(g)
		dec, err := DecodeGraph(enc)
		if err != nil {
			t.Errorf("graph %d: decode: %v", i, err)
			continue
		}
		if dec.N() != g.N() || dec.M() != g.M() {
			t.Errorf("graph %d: size mismatch %d/%d vs %d/%d", i, dec.N(), dec.M(), g.N(), g.M())
			continue
		}
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if dec.Label(v) != g.Label(v) {
				t.Errorf("graph %d: label of %d changed", i, v)
			}
			for p := 0; p < g.Degree(v); p++ {
				u1, q1 := g.Neighbor(v, p)
				u2, q2 := dec.Neighbor(v, p)
				if u1 != u2 || q1 != q2 {
					t.Errorf("graph %d: port %d at %d differs: %d:%d vs %d:%d", i, p, v, u1, q1, u2, q2)
				}
			}
		}
	}
}

func TestDecodeGraphRejectsGarbage(t *testing.T) {
	if _, err := DecodeGraph(bitstring.FromBits(0, 0, 0)); err == nil {
		t.Error("garbage decoded")
	}
	var empty bitstring.String
	if _, err := DecodeGraph(empty); err == nil {
		t.Error("empty string decoded")
	}
}

func TestDecodeGraphReaderLeavesTrailingBits(t *testing.T) {
	g := mustGraph(t)(graphgen.Cycle(5))
	var w bitstring.Writer
	w.WriteString(EncodeGraph(g))
	w.WriteFixed(3, 4) // trailing payload, e.g. the full-map source index
	r := bitstring.NewReader(w.String())
	if _, err := DecodeGraphReader(r); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 4 {
		t.Fatalf("remaining = %d, want 4", r.Remaining())
	}
	v, err := r.ReadFixed(4)
	if err != nil || v != 3 {
		t.Errorf("trailing read = %d, %v", v, err)
	}
}

func TestFullMapOracle(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(3, 4))
	advice, err := FullMap{}.Advise(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != g.N() {
		t.Fatalf("advice for %d nodes, want %d", len(advice), g.N())
	}
	// Every node gets the same string, and it decodes back to g + source.
	first := advice[0]
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if !advice[v].Equal(first) {
			t.Errorf("node %d advice differs", v)
		}
	}
	r := bitstring.NewReader(first)
	dec, err := DecodeGraphReader(r)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != g.N() {
		t.Errorf("decoded n = %d", dec.N())
	}
	src, err := r.ReadFixed(FieldWidth(g.N()))
	if err != nil || src != 2 {
		t.Errorf("source = %d, %v", src, err)
	}
	// Full map is Ω(n·m) bits — enormously bigger than the paper's oracles.
	if advice.SizeBits() < g.N()*g.M() {
		t.Errorf("full map suspiciously small: %d bits", advice.SizeBits())
	}
}

func TestFieldWidth(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
		{1 << 62, 62}, {1<<62 + 1, 63}, {math.MaxInt, 63},
	}
	for _, tc := range tests {
		if got := FieldWidth(tc.n); got != tc.want {
			t.Errorf("FieldWidth(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

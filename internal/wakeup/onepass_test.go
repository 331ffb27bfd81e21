package wakeup

import (
	"fmt"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// bfsTreeAdvice is the BFS-tree advice built the long way: spantree.BFS,
// then each internal node's children encoded in Tree.Children's order.
func bfsTreeAdvice(t *testing.T, g *graph.Graph, src graph.NodeID) sim.Advice {
	t.Helper()
	tree, err := spantree.BFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	width := oracle.FieldWidth(g.N())
	advice := make(sim.Advice, g.N())
	for v := range advice {
		if kids := tree.Children(graph.NodeID(v)); len(kids) > 0 {
			advice[v] = encodeChildPorts(kids, width)
		}
	}
	return advice
}

// TestOnePassAdviceMatchesBFSTree holds Oracle{}'s one-search advice to
// the spanning-tree construction on every graphgen family at sizes from a
// single node to one past a power of two, from several sources.
func TestOnePassAdviceMatchesBFSTree(t *testing.T) {
	single, err := graph.NewBuilder(1).Graph()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{"single-node": single}
	for _, fam := range graphgen.Families() {
		for _, n := range []int{1, 2, 5, 64, 257} {
			g, err := fam.Generate(n, int64(n))
			if err != nil {
				continue // families that need more nodes
			}
			cases[fmt.Sprintf("%s/n=%d", fam.Name, n)] = g
		}
	}
	for name, g := range cases {
		n := g.N()
		for _, src := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
			got, err := Oracle{}.Advise(g, src)
			if err != nil {
				t.Fatalf("%s from %d: %v", name, src, err)
			}
			want := bfsTreeAdvice(t, g, src)
			if len(got) != n {
				t.Fatalf("%s from %d: %d strings for %d nodes", name, src, len(got), n)
			}
			for v := range want {
				if !got[v].Equal(want[v]) {
					t.Fatalf("%s from %d: node %d advice %s, want %s", name, src, v, got[v], want[v])
				}
			}
		}
	}
	if len(cases) < 4*len(graphgen.Families()) {
		t.Errorf("only %d graphs generated", len(cases))
	}
}

func TestOnePassAdviceRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(1, 2)
	b.AddEdgeAuto(3, 4)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	_, want := spantree.BFS(g, 0)
	for _, src := range []graph.NodeID{0, 3} {
		if _, err := (Oracle{}).Advise(g, src); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("from %d: error %v, want spantree.BFS's %v", src, err, want)
		}
	}
}

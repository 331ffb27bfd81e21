package spantree

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
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

func TestWeightAndContribution(t *testing.T) {
	e := graph.Edge{U: 0, V: 1, PU: 5, PV: 3}
	if Weight(e) != 3 {
		t.Errorf("Weight = %d, want 3", Weight(e))
	}
	if Contribution(e) != 2 {
		t.Errorf("Contribution = %d, want 2", Contribution(e))
	}
	zero := graph.Edge{U: 0, V: 1, PU: 0, PV: 7}
	if Weight(zero) != 0 || Contribution(zero) != 1 {
		t.Errorf("zero-port edge: w=%d c=%d", Weight(zero), Contribution(zero))
	}
}

func TestBFSTree(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(5, 5))
	tr, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges()) != g.N()-1 {
		t.Errorf("tree has %d edges", len(tr.Edges()))
	}
	// BFS tree depth equals BFS distance.
	res := g.BFS(0)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if d := tr.Depth(v); d != res.Dist[v] {
			t.Errorf("Depth(%d) = %d, want %d", v, d, res.Dist[v])
		}
	}
}

func TestDFSTree(t *testing.T) {
	g := mustGraph(t)(graphgen.Cycle(10))
	tr, err := DFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	// DFS on a cycle yields a path of depth n-1.
	maxDepth := 0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if d := tr.Depth(v); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != g.N()-1 {
		t.Errorf("DFS on cycle: max depth %d, want %d", maxDepth, g.N()-1)
	}
}

func TestTreesRejectDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(2, 3)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFS(g, 0); err == nil {
		t.Error("BFS accepted disconnected graph")
	}
	if _, err := DFS(g, 0); err == nil {
		t.Error("DFS accepted disconnected graph")
	}
	if _, err := Light(g); err == nil {
		t.Error("Light accepted disconnected graph")
	}
	if _, err := Prim(g); err == nil {
		t.Error("Prim accepted disconnected graph")
	}
	// A path on 0..5 and an edge {6, 7}: Light meets the edge's tree with
	// nothing leaving it in phase 2, while the path's trees still merge.
	// BFS and Light find disconnection in their own passes and must say
	// what the up-front connectivity check said.
	b = graph.NewBuilder(8)
	for v := graph.NodeID(0); v < 5; v++ {
		b.AddEdgeAuto(v, v+1)
	}
	b.AddEdgeAuto(6, 7)
	g = mustGraph(t)(b.Graph())
	const want = "spantree: graph is not connected"
	if _, err := BFS(g, 6); err == nil || err.Error() != want {
		t.Errorf("BFS from the small component: err = %v, want %q", err, want)
	}
	if _, err := Light(g); err == nil || err.Error() != want {
		t.Errorf("Light: err = %v, want %q", err, want)
	}
}

func TestChildrenConsistent(t *testing.T) {
	g := mustGraph(t)(graphgen.DAryTree(13, 3))
	tr, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		for _, c := range tr.Children(v) {
			count++
			if tr.Parent[c.Node] != v {
				t.Errorf("child %d of %d has parent %d", c.Node, v, tr.Parent[c.Node])
			}
			u, _ := g.Neighbor(v, c.Port)
			if u != c.Node {
				t.Errorf("child port %d at %d leads to %d, want %d", c.Port, v, u, c.Node)
			}
		}
	}
	if count != g.N()-1 {
		t.Errorf("total children %d, want %d", count, g.N()-1)
	}
}

func TestRooted(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(4, 4))
	edges, err := Light(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Rooted(g, edges, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	if tr.Root != 5 {
		t.Errorf("root = %d", tr.Root)
	}
	// Rooted must keep exactly the given edge set.
	want := make(map[graph.Edge]bool, len(edges))
	for _, e := range edges {
		want[e.Canonical()] = true
	}
	for _, e := range tr.Edges() {
		if !want[e.Canonical()] {
			t.Errorf("tree edge %v not in the input set", e)
		}
	}
}

func TestRootedRejectsNonSpanning(t *testing.T) {
	g := mustGraph(t)(graphgen.Cycle(5))
	edges := g.Edges()
	if _, err := Rooted(g, edges[:3], 0); err == nil {
		t.Error("3 edges accepted for 5 nodes")
	}
	// n-1 edges that do not span (repeat an edge region): drop edge {4,0}
	// and edge {2,3}, keep a triangle-ish non-spanning subset — construct
	// explicitly: edges {0,1},{1,2},{3,4} plus duplicate region is not
	// possible with distinct edges, so test with a disconnected selection.
	sel := []graph.Edge{edges[0], edges[1], edges[3], edges[3]}
	if _, err := Rooted(g, sel[:4], 0); err == nil {
		t.Error("non-spanning edge set accepted")
	}
}

func TestLightSpansAndIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	graphs := []*graph.Graph{
		mustGraph(t)(graphgen.Path(17)),
		mustGraph(t)(graphgen.Cycle(16)),
		mustGraph(t)(graphgen.Star(20)),
		mustGraph(t)(graphgen.Grid(6, 7)),
		mustGraph(t)(graphgen.Hypercube(5)),
		mustGraph(t)(graphgen.Complete(15)),
		mustGraph(t)(graphgen.RandomConnected(50, 120, rng)),
		mustGraph(t)(graphgen.Lollipop(8, 9)),
	}
	for i, g := range graphs {
		edges, err := Light(g)
		if err != nil {
			t.Errorf("graph %d: %v", i, err)
			continue
		}
		if len(edges) != g.N()-1 {
			t.Errorf("graph %d: %d edges for %d nodes", i, len(edges), g.N())
			continue
		}
		if _, err := Rooted(g, edges, 0); err != nil {
			t.Errorf("graph %d: light edges do not span: %v", i, err)
		}
	}
}

func TestLightContributionBound(t *testing.T) {
	// Claim 3.1: sum of #2(w(e)) over T0 is at most 4n.
	rng := rand.New(rand.NewSource(8))
	type testCase struct {
		name string
		g    *graph.Graph
	}
	cases := []testCase{
		{"complete-64", mustGraph(t)(graphgen.Complete(64))},
		{"complete-128", mustGraph(t)(graphgen.Complete(128))},
		{"grid-12x12", mustGraph(t)(graphgen.Grid(12, 12))},
		{"hypercube-7", mustGraph(t)(graphgen.Hypercube(7))},
		{"random-200-800", mustGraph(t)(graphgen.RandomConnected(200, 800, rng))},
		{"random-300-1000", mustGraph(t)(graphgen.RandomConnected(300, 1000, rng))},
		{"star-100", mustGraph(t)(graphgen.Star(100))},
		{"lollipop", mustGraph(t)(graphgen.Lollipop(30, 40))},
	}
	for _, tc := range cases {
		edges, err := Light(tc.g)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		c := TotalContribution(edges)
		if bound := ContributionBound(tc.g.N()); c > bound {
			t.Errorf("%s: contribution %d exceeds 4n = %d", tc.name, c, bound)
		}
	}
}

func TestLightShuffledPortsStillBounded(t *testing.T) {
	// The 4n bound must hold for adversarial port numberings too.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		base := mustGraph(t)(graphgen.Complete(60))
		g, err := graphgen.ShufflePorts(base, rng)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := Light(g)
		if err != nil {
			t.Fatal(err)
		}
		if c, bound := TotalContribution(edges), ContributionBound(g.N()); c > bound {
			t.Errorf("trial %d: contribution %d > 4n = %d", trial, c, bound)
		}
	}
}

func TestPrimMatchesLightOnTrees(t *testing.T) {
	// On a tree, every spanning-tree algorithm returns the tree itself.
	g := mustGraph(t)(graphgen.DAryTree(31, 2))
	light, err := Light(g)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := Prim(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(light) != g.N()-1 || len(prim) != g.N()-1 {
		t.Fatalf("edge counts: %d, %d", len(light), len(prim))
	}
	want := make(map[graph.Edge]bool)
	for _, e := range g.Edges() {
		want[e] = true
	}
	for _, e := range light {
		if !want[e.Canonical()] {
			t.Errorf("light edge %v not in tree", e)
		}
	}
	for _, e := range prim {
		if !want[e.Canonical()] {
			t.Errorf("prim edge %v not in tree", e)
		}
	}
}

func TestPrimWeightNoHeavierThanLight(t *testing.T) {
	// Prim minimizes total weight; Light only certifies encoding length.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		g, err := graphgen.RandomConnected(80, 400, rng)
		if err != nil {
			t.Fatal(err)
		}
		light, err := Light(g)
		if err != nil {
			t.Fatal(err)
		}
		prim, err := Prim(g)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(edges []graph.Edge) int {
			total := 0
			for _, e := range edges {
				total += Weight(e)
			}
			return total
		}
		if sum(prim) > sum(light) {
			t.Errorf("trial %d: Prim weight %d > Light weight %d", trial, sum(prim), sum(light))
		}
	}
}

func TestLightPhaseWeightInvariant(t *testing.T) {
	// Every light-tree edge has weight < n (ports are < deg < n), and on
	// the complete graph the contribution per edge stays small.
	g := mustGraph(t)(graphgen.Complete(100))
	edges, err := Light(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if Weight(e) >= g.N() {
			t.Errorf("edge %v weight %d >= n", e, Weight(e))
		}
	}
}

func TestLightSingleNodeAndEdge(t *testing.T) {
	b := graph.NewBuilder(1)
	single, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	edges, err := Light(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Errorf("single node tree has %d edges", len(edges))
	}
	pair := mustGraph(t)(graphgen.Path(2))
	edges, err = Light(pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Errorf("two-node tree has %d edges", len(edges))
	}
}

func BenchmarkLightComplete256(b *testing.B) {
	g, err := graphgen.Complete(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Light(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSTreeGrid(b *testing.B) {
	g, err := graphgen.Grid(50, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFS(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package graph

import (
	"testing"
	"testing/quick"
)

func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdgeAuto(NodeID(i), NodeID(i+1))
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("building path P%d: %v", n, err)
	}
	return g
}

func buildCycle(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdgeAuto(NodeID(i), NodeID((i+1)%n))
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("building cycle C%d: %v", n, err)
	}
	return g
}

func TestBuilderPath(t *testing.T) {
	g := buildPath(t, 5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("P5: N=%d M=%d", g.N(), g.M())
	}
	wantDeg := []int{1, 2, 2, 2, 1}
	for v, d := range wantDeg {
		if g.Degree(NodeID(v)) != d {
			t.Errorf("deg(%d) = %d, want %d", v, g.Degree(NodeID(v)), d)
		}
	}
	// Default labels are 1..n.
	for v := 0; v < 5; v++ {
		if g.Label(NodeID(v)) != int64(v+1) {
			t.Errorf("label(%d) = %d, want %d", v, g.Label(NodeID(v)), v+1)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	g := buildCycle(t, 7)
	for v := NodeID(0); int(v) < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			back, bp := g.Neighbor(u, q)
			if back != v || bp != p {
				t.Fatalf("asymmetric: %d:%d -> %d:%d -> %d:%d", v, p, u, q, back, bp)
			}
		}
	}
}

func TestExplicitPorts(t *testing.T) {
	// Triangle with deliberately permuted ports.
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1, 0)
	b.AddEdge(1, 1, 2, 1)
	b.AddEdge(2, 0, 0, 0)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	u, q := g.Neighbor(0, 1)
	if u != 1 || q != 0 {
		t.Errorf("Neighbor(0,1) = %d:%d, want 1:0", u, q)
	}
	if got := g.PortTo(2, 1); got != 1 {
		t.Errorf("PortTo(2,1) = %d, want 1", got)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdgeAuto(0, 0)
	if _, err := b.Graph(); err == nil {
		t.Error("self-loop accepted")
	}
}

// TestBuilderRejectsInvalidNodes: an out-of-range node is an error from
// every Builder method, AddEdgeAuto and a negative SetLabel included,
// never an index panic.
func TestBuilderRejectsInvalidNodes(t *testing.T) {
	for name, build := range map[string]func(b *Builder){
		"AddEdgeAuto past n":  func(b *Builder) { b.AddEdgeAuto(0, 2) },
		"AddEdgeAuto below 0": func(b *Builder) { b.AddEdgeAuto(-1, 1) },
		"AddEdge past n":      func(b *Builder) { b.AddEdge(0, 0, 2, 0) },
		"SetLabel below 0":    func(b *Builder) { b.SetLabel(-1, 5) },
	} {
		b := NewBuilder(2)
		build(b)
		b.AddEdgeAuto(0, 1)
		if _, err := b.Graph(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuilderRejectsPortReuse(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, 1, 0)
	b.AddEdge(0, 0, 2, 0)
	if _, err := b.Graph(); err == nil {
		t.Error("port reuse accepted")
	}
}

func TestBuilderRejectsPortGap(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1, 0) // leaves port 0 at node 0 unused
	if _, err := b.Graph(); err == nil {
		t.Error("non-contiguous ports accepted")
	}
}

func TestBuilderRejectsParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 1, 0)
	b.AddEdge(0, 1, 1, 1)
	if _, err := b.Graph(); err == nil {
		t.Error("parallel edge accepted")
	}
}

func TestBuilderRejectsDuplicateLabels(t *testing.T) {
	b := NewBuilder(2)
	b.SetLabel(0, 7)
	b.SetLabel(1, 7)
	b.AddEdgeAuto(0, 1)
	if _, err := b.Graph(); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestNodeByLabel(t *testing.T) {
	b := NewBuilder(3)
	b.SetLabel(0, 10)
	b.SetLabel(1, 20)
	b.SetLabel(2, 30)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(1, 2)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := g.NodeByLabel(20)
	if !ok || v != 1 {
		t.Errorf("NodeByLabel(20) = %d,%v", v, ok)
	}
	if _, ok := g.NodeByLabel(99); ok {
		t.Error("NodeByLabel(99) found a node")
	}
	if g.MaxLabel() != 30 {
		t.Errorf("MaxLabel = %d", g.MaxLabel())
	}
}

// TestBuiltGraphOwnsItsLabels relabels a node on the builder after
// Graph: the built graph must keep both its label and its label lookup.
func TestBuiltGraphOwnsItsLabels(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdgeAuto(0, 1)
	g := b.MustGraph()
	b.SetLabel(0, 99)
	if got := g.Label(0); got != 1 {
		t.Errorf("Label(0) = %d after a SetLabel on the builder, want 1", got)
	}
	if v, ok := g.NodeByLabel(1); !ok || v != 0 || g.Label(v) != 1 {
		t.Errorf("NodeByLabel(1) = %d,%v with label %d", v, ok, g.Label(v))
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := buildCycle(t, 4)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("|E| = %d", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge %d not canonical: %v", i, e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Errorf("edges not sorted at %d: %v after %v", i, e, prev)
			}
		}
		// Reported ports must be consistent with the adjacency.
		if u, q := g.Neighbor(e.U, e.PU); u != e.V || q != e.PV {
			t.Errorf("edge %v ports inconsistent", e)
		}
	}
}

func TestEdgeCanonicalFlip(t *testing.T) {
	e := Edge{U: 5, V: 2, PU: 3, PV: 1}
	c := e.Canonical()
	want := Edge{U: 2, V: 5, PU: 1, PV: 3}
	if c != want {
		t.Errorf("Canonical = %+v, want %+v", c, want)
	}
	if c.Canonical() != want {
		t.Error("Canonical not idempotent")
	}
}

func TestBFSPath(t *testing.T) {
	g := buildPath(t, 6)
	res := g.BFS(0)
	for v := 0; v < 6; v++ {
		if res.Dist[v] != v {
			t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	for v := 1; v < 6; v++ {
		if res.Parent[v] != NodeID(v-1) {
			t.Errorf("Parent[%d] = %d", v, res.Parent[v])
		}
	}
	if res.Parent[0] != -1 || res.ParentPort[0] != -1 {
		t.Error("root has a parent")
	}
	if len(res.Order) != 6 || res.Order[0] != 0 {
		t.Errorf("Order = %v", res.Order)
	}
}

func TestBFSPortsConsistent(t *testing.T) {
	g := buildCycle(t, 9)
	res := g.BFS(3)
	for v := NodeID(0); int(v) < g.N(); v++ {
		if res.Parent[v] < 0 {
			continue
		}
		u, q := g.Neighbor(v, res.ParentPort[v])
		if u != res.Parent[v] {
			t.Errorf("ParentPort[%d] leads to %d, want %d", v, u, res.Parent[v])
		}
		if q != res.ChildPort[v] {
			t.Errorf("ChildPort[%d] = %d, want %d", v, res.ChildPort[v], q)
		}
	}
}

func TestConnectedAndDiameter(t *testing.T) {
	g := buildPath(t, 8)
	if !g.Connected() {
		t.Error("path not connected")
	}
	if d := g.Diameter(); d != 7 {
		t.Errorf("Diameter(P8) = %d, want 7", d)
	}
	c := buildCycle(t, 8)
	if d := c.Diameter(); d != 4 {
		t.Errorf("Diameter(C8) = %d, want 4", d)
	}

	// Disconnected graph: two disjoint edges.
	b := NewBuilder(4)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(2, 3)
	dg, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if dg.Connected() {
		t.Error("disjoint edges reported connected")
	}
	if dg.Diameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
}

func TestValidatePasses(t *testing.T) {
	for _, n := range []int{3, 5, 17} {
		if err := buildCycle(t, n).Validate(); err != nil {
			t.Errorf("C%d: %v", n, err)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	b := NewBuilder(4) // star
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(0, 2)
	b.AddEdgeAuto(0, 3)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestCycleBFSDistanceProperty(t *testing.T) {
	// In a cycle, dist(0, v) = min(v, n-v).
	f := func(seed uint8) bool {
		n := int(seed%29) + 3
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdgeAuto(NodeID(i), NodeID((i+1)%n))
		}
		g, err := b.Graph()
		if err != nil {
			return false
		}
		res := g.BFS(0)
		for v := 0; v < n; v++ {
			want := v
			if n-v < want {
				want = n - v
			}
			if res.Dist[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustGraphPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGraph on invalid build did not panic")
		}
	}()
	b := NewBuilder(2)
	b.AddEdgeAuto(0, 0) // self-loop
	b.MustGraph()
}

func TestMustGraphReturnsValid(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdgeAuto(0, 1)
	g := b.MustGraph()
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
}

func TestEccentricityDisconnected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(1, 2)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if e := g.Eccentricity(1); e != 1 {
		t.Errorf("ecc(center of P3) = %d, want 1", e)
	}
	if e := g.Eccentricity(0); e != 2 {
		t.Errorf("ecc(end of P3) = %d, want 2", e)
	}
}

func TestBuilderErrorsPropagate(t *testing.T) {
	// Errors latch: later valid calls do not clear them.
	b := NewBuilder(3)
	b.AddEdge(0, -1, 1, 0) // negative port
	b.AddEdgeAuto(1, 2)    // fine on its own
	if _, err := b.Graph(); err == nil {
		t.Error("latched builder error lost")
	}
	// SetLabel on an invalid node also latches.
	b2 := NewBuilder(1)
	b2.SetLabel(5, 9)
	if _, err := b2.Graph(); err == nil {
		t.Error("SetLabel on invalid node accepted")
	}
}

func TestPortToMissingEdge(t *testing.T) {
	g := buildPath(t, 3)
	if p := g.PortTo(0, 2); p != -1 {
		t.Errorf("PortTo non-edge = %d, want -1", p)
	}
}

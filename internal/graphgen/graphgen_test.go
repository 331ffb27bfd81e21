package graphgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oraclesize/internal/graph"
)

func TestPathCycleStar(t *testing.T) {
	tests := []struct {
		name       string
		g          *graph.Graph
		err        error
		wantN      int
		wantM      int
		wantDiam   int
		wantMaxDeg int
	}{}
	p, err := Path(6)
	if err != nil {
		t.Fatal(err)
	}
	tests = append(tests, struct {
		name       string
		g          *graph.Graph
		err        error
		wantN      int
		wantM      int
		wantDiam   int
		wantMaxDeg int
	}{"P6", p, nil, 6, 5, 5, 2})
	c, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	tests = append(tests, struct {
		name       string
		g          *graph.Graph
		err        error
		wantN      int
		wantM      int
		wantDiam   int
		wantMaxDeg int
	}{"C6", c, nil, 6, 6, 3, 2})
	s, err := Star(6)
	if err != nil {
		t.Fatal(err)
	}
	tests = append(tests, struct {
		name       string
		g          *graph.Graph
		err        error
		wantN      int
		wantM      int
		wantDiam   int
		wantMaxDeg int
	}{"S6", s, nil, 6, 5, 2, 5})
	for _, tc := range tests {
		if tc.g.N() != tc.wantN || tc.g.M() != tc.wantM {
			t.Errorf("%s: N=%d M=%d, want %d/%d", tc.name, tc.g.N(), tc.g.M(), tc.wantN, tc.wantM)
		}
		if d := tc.g.Diameter(); d != tc.wantDiam {
			t.Errorf("%s: diameter %d, want %d", tc.name, d, tc.wantDiam)
		}
		if d := tc.g.MaxDegree(); d != tc.wantMaxDeg {
			t.Errorf("%s: max degree %d, want %d", tc.name, d, tc.wantMaxDeg)
		}
		if err := tc.g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestGeneratorsRejectBadInput(t *testing.T) {
	if _, err := Path(0); err == nil {
		t.Error("Path(0) accepted")
	}
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) accepted")
	}
	if _, err := Star(1); err == nil {
		t.Error("Star(1) accepted")
	}
	if _, err := Grid(1, 1); err == nil {
		t.Error("Grid(1,1) accepted")
	}
	if _, err := Hypercube(0); err == nil {
		t.Error("Hypercube(0) accepted")
	}
	if _, err := Complete(1); err == nil {
		t.Error("Complete(1) accepted")
	}
	if _, err := RandomConnected(5, 3, rand.New(rand.NewSource(1))); err == nil {
		t.Error("RandomConnected with m < n-1 accepted")
	}
	if _, err := RandomConnected(5, 11, rand.New(rand.NewSource(1))); err == nil {
		t.Error("RandomConnected with m > C(n,2) accepted")
	}
}

func TestDAryTree(t *testing.T) {
	g, err := DAryTree(15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if d := g.Diameter(); d != 6 {
		t.Errorf("complete binary tree of 15 nodes: diameter %d, want 6", d)
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	wantM := 4*4 + 3*5 // horizontal + vertical
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	if d := g.Diameter(); d != 7 {
		t.Errorf("diameter %d, want 7", d)
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("diameter %d, want 4", d)
	}
	// Dimensional port labeling: port i at v leads to v ^ (1<<i), and the
	// reverse port is also i.
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			if int(u) != int(v)^(1<<uint(p)) {
				t.Fatalf("port %d at %d leads to %d", p, v, u)
			}
			if q != p {
				t.Fatalf("reverse port %d != %d", q, p)
			}
		}
	}
}

func TestCompleteCanonicalPorts(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		g, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != n || g.M() != n*(n-1)/2 {
			t.Fatalf("K%d: N=%d M=%d", n, g.N(), g.M())
		}
		// port_i(j) = ((j-i) mod n) - 1 and the labeling must be proper.
		for i := 1; i <= n; i++ {
			v, ok := g.NodeByLabel(int64(i))
			if !ok {
				t.Fatalf("label %d missing", i)
			}
			if g.Degree(v) != n-1 {
				t.Fatalf("deg(%d) = %d", i, g.Degree(v))
			}
			for j := 1; j <= n; j++ {
				if i == j {
					continue
				}
				u, _ := g.NodeByLabel(int64(j))
				want := mod(j-i, n) - 1
				if got := g.PortTo(v, u); got != want {
					t.Errorf("K%d: port at %d toward %d = %d, want %d", n, i, j, got, want)
				}
			}
		}
	}
}

func TestAllCompleteEdges(t *testing.T) {
	edges := AllCompleteEdges(5)
	if len(edges) != 10 {
		t.Fatalf("len = %d", len(edges))
	}
	seen := make(map[LabelEdge]bool)
	for _, e := range edges {
		if e.U >= e.V || e.U < 1 || e.V > 5 {
			t.Errorf("bad edge %v", e)
		}
		if seen[e] {
			t.Errorf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestRandomEdgeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := RandomEdgeTuple(10, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	seen := make(map[LabelEdge]bool)
	for _, e := range s {
		if seen[e.Canon()] {
			t.Errorf("duplicate edge %v", e)
		}
		seen[e.Canon()] = true
	}
	if _, err := RandomEdgeTuple(4, 7, rng); err == nil {
		t.Error("over-large tuple accepted")
	}
}

func TestSubdividedComplete(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(7))
	s, err := RandomEdgeTuple(n, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := SubdividedComplete(n, s)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2*n {
		t.Fatalf("N = %d, want %d", g.N(), 2*n)
	}
	// Edge count: C(n,2) - n replaced + 2n new = C(n,2) + n.
	wantM := n*(n-1)/2 + n
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	if !g.Connected() {
		t.Error("G_{n,S} not connected")
	}
	// Hidden node w_i has label n+i, degree 2, port 0 to the smaller
	// endpoint and port 1 to the larger; attachment ports at u_i, v_i are
	// the original K*_n ports of the subdivided edge.
	for i, e := range s {
		e = e.Canon()
		w, ok := g.NodeByLabel(int64(n + i + 1))
		if !ok {
			t.Fatalf("hidden node %d missing", n+i+1)
		}
		if g.Degree(w) != 2 {
			t.Fatalf("deg(w_%d) = %d", i+1, g.Degree(w))
		}
		u0, q0 := g.Neighbor(w, 0)
		u1, q1 := g.Neighbor(w, 1)
		if g.Label(u0) != int64(e.U) || g.Label(u1) != int64(e.V) {
			t.Errorf("w_%d ports lead to labels %d,%d, want %d,%d",
				i+1, g.Label(u0), g.Label(u1), e.U, e.V)
		}
		if q0 != mod(e.V-e.U, n)-1 {
			t.Errorf("attachment port at u_%d = %d, want %d", i+1, q0, mod(e.V-e.U, n)-1)
		}
		if q1 != mod(e.U-e.V, n)-1 {
			t.Errorf("attachment port at v_%d = %d, want %d", i+1, q1, mod(e.U-e.V, n)-1)
		}
	}
	// Original nodes keep degree n-1 — the subdivision is invisible from
	// the port structure, which is the crux of the lower bound.
	for i := 1; i <= n; i++ {
		v, _ := g.NodeByLabel(int64(i))
		if g.Degree(v) != n-1 {
			t.Errorf("deg(label %d) = %d, want %d", i, g.Degree(v), n-1)
		}
	}
}

func TestSubdividedCompleteRejects(t *testing.T) {
	if _, err := SubdividedComplete(6, []LabelEdge{{1, 2}, {2, 1}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := SubdividedComplete(6, []LabelEdge{{1, 9}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := SubdividedComplete(2, nil); err == nil {
		t.Error("tiny n accepted")
	}
}

func TestCliqueGadget(t *testing.T) {
	n, k := 12, 4
	rng := rand.New(rand.NewSource(3))
	s, err := RandomEdgeTuple(n, n/k, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := RandomGadgetPairs(n/k, k, rng)
	g, err := CliqueGadget(n, k, s, c)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n+(n/k)*k {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Error("G_{n,S,C} not connected")
	}
	// Every clique node has degree k-1 (paper: "all nodes with labels larger
	// than n have degree k-1").
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if g.Label(v) > int64(n) {
			if g.Degree(v) != k-1 {
				t.Errorf("clique node label %d has degree %d, want %d", g.Label(v), g.Degree(v), k-1)
			}
		} else {
			if g.Degree(v) != n-1 {
				t.Errorf("original node label %d has degree %d, want %d", g.Label(v), g.Degree(v), n-1)
			}
		}
	}
	// The removed internal edge {a_i, b_i} must be absent and rewired.
	for i := 1; i <= n/k; i++ {
		pair := c[i-1]
		a, _ := g.NodeByLabel(int64(n + (i-1)*k + pair.A))
		bb, _ := g.NodeByLabel(int64(n + (i-1)*k + pair.B))
		if g.HasEdge(a, bb) {
			t.Errorf("gadget %d: removed clique edge still present", i)
		}
		e := s[i-1].Canon()
		u, _ := g.NodeByLabel(int64(e.U))
		v, _ := g.NodeByLabel(int64(e.V))
		if g.HasEdge(u, v) {
			t.Errorf("gadget %d: replaced K*_n edge still present", i)
		}
		if !g.HasEdge(u, a) || !g.HasEdge(v, bb) {
			t.Errorf("gadget %d: attachment edges missing", i)
		}
	}
}

func TestCliqueGadgetRejects(t *testing.T) {
	if _, err := CliqueGadget(12, 2, []LabelEdge{{1, 2}}, []GadgetPair{{1, 2}}); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := CliqueGadget(12, 4, []LabelEdge{{1, 2}}, nil); err == nil {
		t.Error("|S| != |C| accepted")
	}
	if _, err := CliqueGadget(12, 4, []LabelEdge{{1, 2}}, []GadgetPair{{3, 3}}); err == nil {
		t.Error("degenerate pair accepted")
	}
}

func TestRandomGadgetPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pairs := RandomGadgetPairs(200, 5, rng)
	for _, p := range pairs {
		if p.A < 1 || p.B > 5 || p.A >= p.B {
			t.Fatalf("bad pair %v", p)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, m int }{{2, 1}, {10, 9}, {10, 20}, {30, 100}} {
		g, err := RandomConnected(tc.n, tc.m, rng)
		if err != nil {
			t.Fatalf("RandomConnected(%d,%d): %v", tc.n, tc.m, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("got N=%d M=%d, want %d/%d", g.N(), g.M(), tc.n, tc.m)
		}
		if !g.Connected() {
			t.Errorf("RandomConnected(%d,%d) disconnected", tc.n, tc.m)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("invalid graph: %v", err)
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	g1, err := RandomConnected(20, 40, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomConnected(20, 40, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge counts differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestShufflePortsPreservesAdjacency(t *testing.T) {
	base, err := Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ShufflePorts(base, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != base.N() || g.M() != base.M() {
		t.Fatalf("size changed: %d/%d vs %d/%d", g.N(), g.M(), base.N(), base.M())
	}
	for v := graph.NodeID(0); int(v) < base.N(); v++ {
		if g.Label(v) != base.Label(v) {
			t.Errorf("label of %d changed", v)
		}
		for p := 0; p < base.Degree(v); p++ {
			u, _ := base.Neighbor(v, p)
			if !g.HasEdge(v, u) {
				t.Errorf("edge {%d,%d} lost", v, u)
			}
		}
	}
}

func TestLollipopAndCaterpillar(t *testing.T) {
	l, err := Lollipop(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 9 || l.M() != 10+4 {
		t.Errorf("lollipop: N=%d M=%d", l.N(), l.M())
	}
	if !l.Connected() {
		t.Error("lollipop disconnected")
	}
	cat, err := Caterpillar(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cat.N() != 16 || cat.M() != 15 {
		t.Errorf("caterpillar: N=%d M=%d", cat.N(), cat.M())
	}
	if !cat.Connected() {
		t.Error("caterpillar disconnected")
	}
}

func TestFamiliesAllGenerateConnected(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, n := range []int{8, 33, 64} {
				g, err := f.Generate(n, int64(n))
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if g.N() < 2 {
					t.Fatalf("n=%d: graph too small (%d)", n, g.N())
				}
				if !g.Connected() {
					t.Fatalf("n=%d: disconnected", n)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

func TestFamilyByName(t *testing.T) {
	if _, err := FamilyByName("hypercube"); err != nil {
		t.Error(err)
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestSubdividedCompletePropertyRandom(t *testing.T) {
	f := func(seed int64, sizeSeed uint8) bool {
		n := int(sizeSeed%10) + 5
		rng := rand.New(rand.NewSource(seed))
		count := n // paper's case |S| = n; requires C(n,2) >= n, true for n >= 3
		s, err := RandomEdgeTuple(n, count, rng)
		if err != nil {
			return false
		}
		g, err := SubdividedComplete(n, s)
		if err != nil {
			return false
		}
		return g.Connected() && g.N() == 2*n && g.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

package graphgen

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graph"
)

func TestCompleteBipartite(t *testing.T) {
	g, err := CompleteBipartite(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K_{3,4}: N=%d M=%d", g.N(), g.M())
	}
	for v := graph.NodeID(0); v < 3; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("left node %d degree %d", v, g.Degree(v))
		}
	}
	for v := graph.NodeID(3); v < 7; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("right node %d degree %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("diameter %d", d)
	}
	if _, err := CompleteBipartite(0, 4); err == nil {
		t.Error("K_{0,4} accepted")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus: N=%d M=%d", g.N(), g.M())
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("node %d degree %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("diameter %d, want 4", d)
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("2-row torus accepted (parallel edges)")
	}
}

func TestWheel(t *testing.T) {
	g, err := Wheel(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 14 {
		t.Fatalf("W8: N=%d M=%d", g.N(), g.M())
	}
	hub := graph.NodeID(7)
	if g.Degree(hub) != 7 {
		t.Errorf("hub degree %d", g.Degree(hub))
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("diameter %d", d)
	}
	if _, err := Wheel(3); err == nil {
		t.Error("W3 accepted")
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {16, 4}, {30, 3}, {20, 6}} {
		g, err := RandomRegular(tc.n, tc.d, 5)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if g.N() != tc.n {
			t.Fatalf("N = %d", g.N())
		}
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("node %d degree %d, want %d", v, g.Degree(v), tc.d)
			}
		}
		if !g.Connected() {
			t.Fatal("disconnected")
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RandomRegular(5, 3, 5); err == nil {
		t.Error("odd n·d accepted")
	}
	if _, err := RandomRegular(4, 4, 5); err == nil {
		t.Error("d >= n accepted")
	}
}

func TestBroom(t *testing.T) {
	g, err := Broom(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 || g.M() != 11 {
		t.Fatalf("broom: N=%d M=%d", g.N(), g.M())
	}
	// Longest path: a bristle to the far end of the handle.
	if d := g.Diameter(); d != 5 {
		t.Errorf("diameter %d, want 5", d)
	}
}

func TestBinomialTree(t *testing.T) {
	g, err := BinomialTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 15 {
		t.Fatalf("B4: N=%d M=%d", g.N(), g.M())
	}
	// Root (node 0) of B_k has degree k.
	if g.Degree(0) != 4 {
		t.Errorf("root degree %d", g.Degree(0))
	}
	if !g.Connected() {
		t.Error("disconnected")
	}
	if _, err := BinomialTree(0); err == nil {
		t.Error("B0 accepted")
	}
}

func TestShuffleLabels(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ShuffleLabels(g, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != g.N() || s.M() != g.M() {
		t.Fatal("size changed")
	}
	// Port structure identical.
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		for p := 0; p < g.Degree(v); p++ {
			u1, q1 := g.Neighbor(v, p)
			u2, q2 := s.Neighbor(v, p)
			if u1 != u2 || q1 != q2 {
				t.Fatalf("adjacency changed at %d:%d", v, p)
			}
		}
	}
	// Same label multiset.
	seen := make(map[int64]bool)
	for v := graph.NodeID(0); int(v) < s.N(); v++ {
		l := s.Label(v)
		if l < 1 || l > int64(s.N()) || seen[l] {
			t.Fatalf("bad label %d", l)
		}
		seen[l] = true
	}
}

package spantree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
)

// refLight is Light as it was before its phases became one pass over the
// ports: a member list per tree and a walk of every small tree's members,
// calling dsu.find per half-edge. TestLightMatchesReference and
// FuzzLightMatchesReference hold Light to it.
func refLight(g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spantree: empty graph")
	}
	if !g.Connected() {
		return nil, ErrNotConnected
	}
	if n == 1 {
		return nil, nil
	}

	dsu := newDSU(n)
	// The member list of each tree is kept as an intrusive linked list
	// (head/tail per representative, one next pointer per node), so unions
	// concatenate in O(1) without per-tree slices.
	members := newRefMemberLists(n)
	treeEdges := make([]graph.Edge, 0, n-1)
	reps := make([]graph.NodeID, 0, n)
	var selected []graph.Edge

	trees := n
	for k := 1; trees > 1; k++ {
		if k > 2*n {
			return nil, fmt.Errorf("spantree: phase bound exceeded (n=%d)", n)
		}
		threshold := 1 << uint(k)
		// Collect the current tree representatives.
		reps = reps[:0]
		for v := 0; v < n; v++ {
			if dsu.find(graph.NodeID(v)) == graph.NodeID(v) {
				reps = append(reps, graph.NodeID(v))
			}
		}
		// Select, for each small tree, its minimum-weight outgoing edge.
		selected = selected[:0]
		for _, r := range reps {
			if dsu.size[r] >= threshold {
				continue
			}
			e, ok := refMinOutgoing(g, dsu, members, r)
			if !ok {
				return nil, fmt.Errorf("spantree: tree at %d has no outgoing edge in a connected graph", r)
			}
			selected = append(selected, e)
		}
		// Deterministic merge order.
		slices.SortFunc(selected, func(a, b graph.Edge) int {
			if wa, wb := Weight(a), Weight(b); wa != wb {
				return wa - wb
			}
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		// Add the selected edges; an edge whose endpoints were already
		// merged this phase would close a cycle, which the paper's step 4
		// erases — dropping the selected edge is the canonical erasure.
		for _, e := range selected {
			ru, rv := dsu.find(e.U), dsu.find(e.V)
			if ru == rv {
				continue
			}
			dsu.union(ru, rv)
			root := dsu.find(ru)
			other := ru
			if other == root {
				other = rv
			}
			members.concat(root, other)
			treeEdges = append(treeEdges, e)
			trees--
		}
	}
	return treeEdges, nil
}

// refMemberLists tracks the nodes of each forest tree as intrusive linked
// lists keyed by DSU representative.
type refMemberLists struct {
	head []int32
	tail []int32
	next []int32 // -1 terminates
}

func newRefMemberLists(n int) *refMemberLists {
	m := &refMemberLists{
		head: make([]int32, n),
		tail: make([]int32, n),
		next: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		m.head[v] = int32(v)
		m.tail[v] = int32(v)
		m.next[v] = -1
	}
	return m
}

// concat appends the list of other onto root's.
func (m *refMemberLists) concat(root, other graph.NodeID) {
	m.next[m.tail[root]] = m.head[other]
	m.tail[root] = m.tail[other]
}

// refMinOutgoing finds a minimum-weight edge from the tree rooted at the DSU
// representative r to the rest of the graph, breaking ties by canonical
// edge order. ok is false when no outgoing edge exists.
func refMinOutgoing(g *graph.Graph, dsu *dsu, members *refMemberLists, r graph.NodeID) (graph.Edge, bool) {
	var best graph.Edge
	bestW := -1
	for i := members.head[r]; i >= 0; i = members.next[i] {
		v := graph.NodeID(i)
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			if dsu.find(u) == r {
				continue
			}
			e := graph.Edge{U: v, V: u, PU: p, PV: q}.Canonical()
			w := Weight(e)
			if bestW < 0 || w < bestW || (w == bestW && edgeLess(e, best)) {
				best, bestW = e, w
			}
		}
	}
	return best, bestW >= 0
}

func TestLightMatchesReference(t *testing.T) {
	for _, fam := range graphgen.Families() {
		for _, n := range []int{2, 3, 17, 64, 200, 256, 1024} {
			for seed := int64(1); seed <= 4; seed++ {
				g, err := fam.Generate(n, seed)
				if err != nil {
					continue // families that need a larger n
				}
				rng := rand.New(rand.NewSource(seed))
				for _, h := range []*graph.Graph{g, mustGraph(t)(graphgen.ShufflePorts(g, rng))} {
					got, err := Light(h)
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", fam.Name, n, seed, err)
					}
					want, err := refLight(h)
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: reference: %v", fam.Name, n, seed, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d seed=%d: Light picks %v, reference %v", fam.Name, n, seed, got, want)
					}
				}
			}
		}
	}
}

// FuzzLightMatchesReference holds Light to refLight edge for edge on
// random graphs of 2 to 1,100 nodes, from a tree to the complete graph,
// with their generated or shuffled ports. With split set the graph is two
// such parts side by side (one of them may be a lone node), and both must
// refuse it with ErrNotConnected.
func FuzzLightMatchesReference(f *testing.F) {
	f.Add(uint16(0), uint32(0), int64(1), false, false)
	f.Add(uint16(15), uint32(40), int64(2), true, false)
	f.Add(uint16(254), uint32(256), int64(3), false, false)
	f.Add(uint16(254), uint32(30000), int64(4), true, false)
	f.Add(uint16(1022), uint32(1024), int64(5), false, false)
	f.Add(uint16(1022), uint32(3000), int64(6), true, false)
	f.Add(uint16(1098), uint32(100000), int64(7), false, false)
	f.Add(uint16(62), uint32(50), int64(8), false, true)
	f.Add(uint16(1022), uint32(2048), int64(9), true, true)
	f.Fuzz(func(t *testing.T, nRaw uint16, mRaw uint32, seed int64, shuffle, split bool) {
		n := 2 + int(nRaw)%1099
		rng := rand.New(rand.NewSource(seed))
		// part draws a random connected graph on k nodes, with an edge
		// count from k-1 to k(k-1)/2 picked by mRaw.
		part := func(k int) *graph.Graph {
			if k < 2 {
				return graph.NewBuilder(k).MustGraph()
			}
			m := k - 1 + int(mRaw%uint32(k*(k-1)/2-(k-1)+1))
			g, err := graphgen.RandomConnected(k, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		var g *graph.Graph
		if split {
			k := 1 + rng.Intn(n-1)
			a, b := part(k), part(n-k)
			bd := graph.NewBuilder(n)
			for _, e := range a.Edges() {
				bd.AddEdge(e.U, e.PU, e.V, e.PV)
			}
			for _, e := range b.Edges() {
				bd.AddEdge(e.U+graph.NodeID(k), e.PU, e.V+graph.NodeID(k), e.PV)
			}
			g = bd.MustGraph()
		} else {
			g = part(n)
		}
		if shuffle {
			var err error
			if g, err = graphgen.ShufflePorts(g, rng); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Light(g)
		want, refErr := refLight(g)
		if split {
			if !errors.Is(err, ErrNotConnected) || !errors.Is(refErr, ErrNotConnected) {
				t.Fatalf("n=%d split: Light err %v, reference err %v, want %v from both", n, err, refErr, ErrNotConnected)
			}
			return
		}
		if err != nil || refErr != nil {
			t.Fatalf("n=%d m=%d: Light err %v, reference err %v", n, g.M(), err, refErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d m=%d: Light picks %v, reference %v", n, g.M(), got, want)
		}
	})
}

// dsu is a union-find over NodeIDs with path compression and union by size.
type dsu struct {
	parent []graph.NodeID
	size   []int
}

func newDSU(n int) *dsu {
	d := &dsu{}
	d.reset(n)
	return d
}

// reset makes d n singleton trees, reusing its arrays.
func (d *dsu) reset(n int) {
	d.parent, d.size = slices.Grow(d.parent[:0], n)[:n], slices.Grow(d.size[:0], n)[:n]
	for i := range d.parent {
		d.parent[i] = graph.NodeID(i)
		d.size[i] = 1
	}
}

func (d *dsu) find(v graph.NodeID) graph.NodeID {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]]
		v = d.parent[v]
	}
	return v
}

// union merges the trees of a and b, which must be distinct
// representatives.
func (d *dsu) union(a, b graph.NodeID) {
	if d.size[a] < d.size[b] {
		a, b = b, a
	}
	d.parent[b] = a
	d.size[a] += d.size[b]
}

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
// calling dsu.find per half-edge. TestLightMatchesReference holds Light to
// it.
func refLight(g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spantree: empty graph")
	}
	if !g.Connected() {
		return nil, errors.New("spantree: graph is not connected")
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
		for _, n := range []int{2, 3, 17, 64, 200} {
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

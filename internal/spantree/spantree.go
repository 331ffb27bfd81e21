// Package spantree builds spanning trees of port-numbered graphs, including
// the construction at the core of the paper's broadcast upper bound
// (Claim 3.1): a Kruskal-phase spanning tree T0 whose edges e, weighted by
// w(e) = min{port_u(e), port_v(e)}, have total encoding contribution
// Σ #2(w(e)) <= 4n.
package spantree

import (
	"errors"
	"fmt"
	"slices"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
)

// ErrNotConnected is what BFS, DFS, Light and Prim return for a graph
// with more than one component.
var ErrNotConnected = errors.New("spantree: graph is not connected")

// Weight is the paper's edge weight: the smaller of the two port numbers.
func Weight(e graph.Edge) int {
	if e.PU < e.PV {
		return e.PU
	}
	return e.PV
}

// Contribution is the paper's encoding cost of an edge: #2(w(e)).
func Contribution(e graph.Edge) int {
	return bitstring.Num2(uint64(Weight(e)))
}

// ContributionBound is Claim 3.1's bound on the total contribution of
// Light's tree on n nodes: Σ #2(w(e)) <= 4n.
func ContributionBound(n int) int { return 4 * n }

// TotalContribution sums Contribution over the edge set.
func TotalContribution(edges []graph.Edge) int {
	total := 0
	for _, e := range edges {
		total += Contribution(e)
	}
	return total
}

// Tree is a rooted spanning tree with port annotations.
type Tree struct {
	Root graph.NodeID
	// Parent[v] is v's parent, -1 at the root.
	Parent []graph.NodeID
	// ParentPort[v] is the port at v of the edge to Parent[v], -1 at the root.
	ParentPort []int
	// ChildPort[v] is the port at Parent[v] of the edge to v, -1 at the root.
	ChildPort []int
	// kids holds every node's children contiguously in CSR form, grouped by
	// parent in increasing child-port order; kidOff[v]..kidOff[v+1] bounds
	// v's group. Children returns zero-copy views into it.
	kids   []Child
	kidOff []int32
}

// Child is a tree child with the port leading to it from the parent.
type Child struct {
	Node graph.NodeID
	// Port is the port at the parent of the edge to Node.
	Port int
}

// N reports the number of nodes.
func (t *Tree) N() int { return len(t.Parent) }

// Children returns v's children with the parent-side ports, in increasing
// port order. The returned slice is a view into the tree and must not be
// mutated.
func (t *Tree) Children(v graph.NodeID) []Child {
	return t.kids[t.kidOff[v]:t.kidOff[v+1]]
}

// Edges returns the n-1 tree edges in canonical orientation.
func (t *Tree) Edges() []graph.Edge {
	edges := make([]graph.Edge, 0, t.N()-1)
	for v := range t.Parent {
		if t.Parent[v] < 0 {
			continue
		}
		e := graph.Edge{U: graph.NodeID(v), V: t.Parent[v], PU: t.ParentPort[v], PV: t.ChildPort[v]}
		edges = append(edges, e.Canonical())
	}
	return edges
}

// Depth returns the depth of v (root has depth 0).
func (t *Tree) Depth(v graph.NodeID) int {
	d := 0
	for t.Parent[v] >= 0 {
		v = t.Parent[v]
		d++
	}
	return d
}

// Validate checks that the tree spans g: every parent edge exists in g with
// the recorded ports, and every node reaches the root.
func (t *Tree) Validate(g *graph.Graph) error {
	if t.N() != g.N() {
		return fmt.Errorf("spantree: tree has %d nodes, graph has %d", t.N(), g.N())
	}
	roots := 0
	for v := range t.Parent {
		if t.Parent[v] < 0 {
			roots++
			continue
		}
		u, q := g.Neighbor(graph.NodeID(v), t.ParentPort[v])
		if u != t.Parent[v] || q != t.ChildPort[v] {
			return fmt.Errorf("spantree: node %d parent edge inconsistent with graph", v)
		}
	}
	if roots != 1 {
		return fmt.Errorf("spantree: %d roots", roots)
	}
	for v := range t.Parent {
		seen := 0
		for u := graph.NodeID(v); t.Parent[u] >= 0; u = t.Parent[u] {
			seen++
			if seen > t.N() {
				return fmt.Errorf("spantree: parent cycle reached from node %d", v)
			}
		}
	}
	return nil
}

func newTree(n int, root graph.NodeID) *Tree {
	t := &Tree{
		Root:       root,
		Parent:     make([]graph.NodeID, n),
		ParentPort: make([]int, n),
		ChildPort:  make([]int, n),
	}
	for v := range t.Parent {
		t.Parent[v] = -1
		t.ParentPort[v] = -1
		t.ChildPort[v] = -1
	}
	return t
}

func (t *Tree) fillChildren() {
	n := t.N()
	t.kidOff = make([]int32, n+1)
	for v := range t.Parent {
		if p := t.Parent[v]; p >= 0 {
			t.kidOff[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		t.kidOff[v+1] += t.kidOff[v]
	}
	t.kids = make([]Child, t.kidOff[n])
	cursor := make([]int32, n)
	copy(cursor, t.kidOff[:n])
	for v := range t.Parent {
		if p := t.Parent[v]; p >= 0 {
			t.kids[cursor[p]] = Child{Node: graph.NodeID(v), Port: t.ChildPort[v]}
			cursor[p]++
		}
	}
	byPort := func(a, b Child) int { return a.Port - b.Port }
	for v := 0; v < n; v++ {
		if seg := t.kids[t.kidOff[v]:t.kidOff[v+1]]; !slices.IsSortedFunc(seg, byPort) {
			slices.SortFunc(seg, byPort)
		}
	}
}

// BFS returns the breadth-first spanning tree of g rooted at root — the
// paper's Theorem 2.1 uses "any spanning tree"; BFS is the canonical choice.
func BFS(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	res := g.BFS(root)
	if len(res.Order) != g.N() {
		return nil, ErrNotConnected
	}
	// The search's arrays are fresh and mark the root as the tree does
	// (-1), so the tree takes them over.
	t := &Tree{Root: root, Parent: res.Parent, ParentPort: res.ParentPort, ChildPort: res.ChildPort}
	t.fillChildren()
	return t, nil
}

// DFS returns the depth-first spanning tree of g rooted at root, scanning
// ports in increasing order.
func DFS(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	if !g.Connected() {
		return nil, ErrNotConnected
	}
	t := newTree(g.N(), root)
	visited := make([]bool, g.N())
	visited[root] = true
	// Iterative DFS to stay safe on deep paths.
	type frame struct {
		v    graph.NodeID
		port int
	}
	stack := []frame{{v: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.port >= g.Degree(f.v) {
			stack = stack[:len(stack)-1]
			continue
		}
		p := f.port
		f.port++
		u, q := g.Neighbor(f.v, p)
		if visited[u] {
			continue
		}
		visited[u] = true
		t.Parent[u] = f.v
		t.ParentPort[u] = q
		t.ChildPort[u] = p
		stack = append(stack, frame{v: u})
	}
	t.fillChildren()
	return t, nil
}

// Rooted orients an undirected spanning edge set at root.
func Rooted(g *graph.Graph, edges []graph.Edge, root graph.NodeID) (*Tree, error) {
	n := g.N()
	if len(edges) != n-1 {
		return nil, fmt.Errorf("spantree: %d edges cannot span %d nodes", len(edges), n)
	}
	adj := make([][]graph.Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	t := newTree(n, root)
	visited := make([]bool, n)
	visited[root] = true
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range adj[v] {
			u, pv, pu := e.V, e.PU, e.PV
			if u == v {
				u, pv, pu = e.U, e.PV, e.PU
			}
			if visited[u] {
				continue
			}
			visited[u] = true
			t.Parent[u] = v
			t.ParentPort[u] = pu
			t.ChildPort[u] = pv
			queue = append(queue, u)
		}
	}
	for v := range visited {
		if !visited[v] {
			return nil, fmt.Errorf("spantree: edge set does not span node %d", v)
		}
	}
	t.fillChildren()
	return t, nil
}

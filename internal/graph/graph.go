// Package graph implements the network model of Fraigniaud, Ilcinkas and
// Pelc (PODC 2006): undirected connected graphs whose nodes carry distinct
// labels and whose edge endpoints carry local port numbers 0..deg(v)-1.
//
// A node of degree d sees its incident edges only through ports 0..d-1; the
// mapping from ports to neighbors is part of the instance, and the paper's
// lower bounds hinge on specific port labelings. Graphs in this package are
// immutable after construction and validated to have a proper port
// assignment.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// NodeID identifies a node as a dense index in [0, N). It is distinct from
// the node's label: proofs in the paper manipulate labels (e.g. nodes
// labeled n+1..2n are the hidden subdivision nodes), while IDs index arrays.
type NodeID int

// Half is a directed half-edge: the far endpoint and the port number used at
// that far endpoint for the reverse direction.
type Half struct {
	To     NodeID
	ToPort int
}

// Edge is an undirected edge in canonical orientation (U < V), together with
// the port numbers at both endpoints.
type Edge struct {
	U, V   NodeID
	PU, PV int
}

// Canonical returns e with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U, PU: e.PV, PV: e.PU}
	}
	return e
}

// Graph is an immutable labeled port-numbered undirected graph.
//
// Adjacency is stored in compressed sparse row (CSR) form: all half-edges
// live in one contiguous slice, ordered by (node, port), and offsets[v]
// indexes the start of node v's ports. The layout keeps the simulation hot
// loop (port resolution during message delivery) on a single cache-friendly
// array instead of chasing per-node slice headers.
type Graph struct {
	labels []int64
	// halves holds every node's ports back to back: node v's port p is
	// halves[offsets[v]+p].
	halves []Half
	// offsets has n+1 entries; offsets[v+1]-offsets[v] is deg(v).
	offsets []int32
	// byLabel maps each label to the first node carrying it. It is nil
	// when every node carries its default label v+1, which NodeByLabel
	// computes.
	byLabel map[int64]NodeID
	m       int

	portOnce sync.Once
	portIdx  *PortIndex
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.labels) }

// M reports the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree reports the degree of v.
func (g *Graph) Degree(v NodeID) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Ports returns v's half-edges in port order as a view into the CSR
// storage. Callers must treat the slice as read-only.
func (g *Graph) Ports(v NodeID) []Half {
	return g.halves[g.offsets[v]:g.offsets[v+1]]
}

// Label reports the label of v.
func (g *Graph) Label(v NodeID) int64 { return g.labels[v] }

// NodeByLabel returns the node carrying the given label.
func (g *Graph) NodeByLabel(label int64) (NodeID, bool) {
	if g.byLabel == nil {
		if label < 1 || label > int64(len(g.labels)) {
			return 0, false
		}
		return NodeID(label - 1), true
	}
	v, ok := g.byLabel[label]
	return v, ok
}

// Neighbor resolves port p at node v: it returns the neighbor u and the port
// number at u of the same edge.
func (g *Graph) Neighbor(v NodeID, p int) (NodeID, int) {
	h := g.halves[int(g.offsets[v])+p]
	return h.To, h.ToPort
}

// PortTo returns the port at u leading to v, or -1 if {u,v} is not an edge.
// It is a linear scan over u's ports; callers on hot paths should use
// PortIndex instead.
func (g *Graph) PortTo(u, v NodeID) int {
	for p, h := range g.Ports(u) {
		if h.To == v {
			return p
		}
	}
	return -1
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.PortTo(u, v) >= 0 }

// PortIndex answers PortTo queries in O(1) via a prebuilt map over all
// directed half-edges. Obtain one from Graph.PortIndex.
type PortIndex struct {
	ports map[uint64]int32
}

// PortIndex returns the graph's O(1) port lookup, building it on first use.
// The index is cached on the immutable graph, so concurrent callers share
// one instance.
func (g *Graph) PortIndex() *PortIndex {
	g.portOnce.Do(func() {
		ix := &PortIndex{ports: make(map[uint64]int32, len(g.halves))}
		for v := NodeID(0); int(v) < g.N(); v++ {
			for p, h := range g.Ports(v) {
				ix.ports[portKey(v, h.To)] = int32(p)
			}
		}
		g.portIdx = ix
	})
	return g.portIdx
}

func portKey(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// PortTo returns the port at u leading to v, or -1 if {u,v} is not an edge.
func (ix *PortIndex) PortTo(u, v NodeID) int {
	p, ok := ix.ports[portKey(u, v)]
	if !ok {
		return -1
	}
	return int(p)
}

// Edges returns all edges in canonical orientation, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	sorted := true
	for u := NodeID(0); int(u) < g.N(); u++ {
		for pu, h := range g.Ports(u) {
			if u < h.To {
				if sorted && len(edges) > 0 {
					last := edges[len(edges)-1]
					if last.U > u || (last.U == u && last.V > h.To) {
						sorted = false
					}
				}
				edges = append(edges, Edge{U: u, V: h.To, PU: pu, PV: h.ToPort})
			}
		}
	}
	// CSR iteration already ascends in U; skip the sort when the port
	// numbering happens to ascend in V too (paths, grids, trees, ...).
	if !sorted {
		slices.SortFunc(edges, func(a, b Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
	}
	return edges
}

// MaxLabel returns the largest node label in the graph.
func (g *Graph) MaxLabel() int64 {
	var maxLabel int64
	for _, l := range g.labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	return maxLabel
}

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := NodeID(0); int(v) < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// BFSResult holds a breadth-first search tree rooted at Root.
type BFSResult struct {
	Root NodeID
	// Parent[v] is v's BFS parent, or -1 for the root and unreachable nodes.
	Parent []NodeID
	// ParentPort[v] is the port at v of the edge to Parent[v], or -1.
	ParentPort []int
	// ChildPort[v] is the port at Parent[v] of the edge to v, or -1.
	ChildPort []int
	// Dist[v] is the hop distance from Root, or -1 if unreachable.
	Dist []int
	// Order lists reachable nodes in visit order (root first).
	Order []NodeID
}

// BFS runs a breadth-first search from root, scanning ports in increasing
// order so the result is deterministic.
func (g *Graph) BFS(root NodeID) *BFSResult {
	n := g.N()
	res := &BFSResult{
		Root:       root,
		Parent:     make([]NodeID, n),
		ParentPort: make([]int, n),
		ChildPort:  make([]int, n),
		Dist:       make([]int, n),
		Order:      make([]NodeID, 0, n),
	}
	for v := range res.Parent {
		res.Parent[v] = -1
		res.ParentPort[v] = -1
		res.ChildPort[v] = -1
		res.Dist[v] = -1
	}
	res.Dist[root] = 0
	// Order is the queue: a node is visited in the order it was reached.
	res.Order = append(res.Order, root)
	for i := 0; i < len(res.Order); i++ {
		v := res.Order[i]
		for p, h := range g.Ports(v) {
			if res.Dist[h.To] >= 0 {
				continue
			}
			res.Dist[h.To] = res.Dist[v] + 1
			res.Parent[h.To] = v
			res.ParentPort[h.To] = h.ToPort
			res.ChildPort[h.To] = p
			res.Order = append(res.Order, h.To)
		}
	}
	return res
}

// Connected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.BFS(0).Order) == g.N()
}

// Eccentricity returns the largest BFS distance from v to any node,
// or -1 if some node is unreachable.
func (g *Graph) Eccentricity(v NodeID) int {
	res := g.BFS(v)
	ecc := 0
	for _, d := range res.Dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter by n BFS runs. Intended for test and
// experiment sizes.
func (g *Graph) Diameter() int {
	diam := 0
	for v := NodeID(0); int(v) < g.N(); v++ {
		e := g.Eccentricity(v)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// Validate re-checks the structural invariants: symmetric half-edges with
// consistent reverse ports, no self-loops, no parallel edges, distinct
// labels. Builders validate on construction; Validate exists for tests and
// for graphs produced by transformation code.
func (g *Graph) Validate() error {
	n := g.N()
	// stamp[u] == v+1 marks u as already met among v's ports, so one slice
	// serves every node's parallel-edge check.
	stamp := make([]int32, n)
	for v := NodeID(0); int(v) < n; v++ {
		// NodeByLabel finds each label's first node; a later node carrying
		// the same label finds that one instead of itself.
		if first, _ := g.NodeByLabel(g.labels[v]); first != v {
			return fmt.Errorf("graph: duplicate label %d on nodes %d and %d", g.labels[v], first, v)
		}
		for p, h := range g.Ports(v) {
			if h.To == v {
				return fmt.Errorf("graph: self-loop at node %d port %d", v, p)
			}
			if h.To < 0 || int(h.To) >= n {
				return fmt.Errorf("graph: node %d port %d points to invalid node %d", v, p, h.To)
			}
			if stamp[h.To] == int32(v)+1 {
				return fmt.Errorf("graph: parallel edge between %d and %d", v, h.To)
			}
			stamp[h.To] = int32(v) + 1
			if h.ToPort < 0 || h.ToPort >= g.Degree(h.To) {
				return fmt.Errorf("graph: node %d port %d has reverse port %d out of range at node %d", v, p, h.ToPort, h.To)
			}
			back := g.Ports(h.To)[h.ToPort]
			if back.To != v || back.ToPort != p {
				return fmt.Errorf("graph: asymmetric edge %d:%d <-> %d:%d", v, p, h.To, h.ToPort)
			}
		}
	}
	edgeCount := len(g.halves)
	if edgeCount != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with half-edge total %d", g.m, edgeCount)
	}
	return nil
}

// Builder assembles a Graph. Nodes are created up front; edges are attached
// either at explicit ports or at the next free port of each endpoint.
//
// Building takes two passes: AddEdge and AddEdgeAuto only log each edge
// with its ports, and Graph counts every node's degree from the log, sizes
// the CSR arrays once and places both halves of every edge.
type Builder struct {
	labels []int64
	edges  []loggedEdge // in call order, with the ports as given
	// next[v] is one past the highest port assigned at v so far: the port
	// AddEdgeAuto takes next.
	next []int
	err  error
}

// loggedEdge is one AddEdge call in the builder's log, in half the bytes
// of an Edge. A port past math.MaxInt32 is logged as math.MaxInt32: at or
// past its node's degree either way, Graph leaves it unplaced and reports
// the port it leaves unused.
type loggedEdge struct{ u, v, pu, pv int32 }

// NewBuilder creates a builder for n nodes, labeled 1..n by default
// (the paper's convention).
func NewBuilder(n int) *Builder {
	b := &Builder{
		labels: make([]int64, n),
		next:   make([]int, n),
	}
	for v := range b.labels {
		b.labels[v] = int64(v) + 1
	}
	return b
}

// Grow makes room in the builder's edge log for m more edges, like
// strings.Builder.Grow, so a generator that knows its edge count logs
// every edge without regrowing the log.
func (b *Builder) Grow(m int) {
	if m < 0 {
		panic("graph: Builder.Grow with negative count")
	}
	b.edges = slices.Grow(b.edges, m)
}

func (b *Builder) has(v NodeID) bool { return v >= 0 && int(v) < len(b.labels) }

// SetLabel overrides the label of v.
func (b *Builder) SetLabel(v NodeID, label int64) {
	if b.err != nil {
		return
	}
	if !b.has(v) {
		b.err = fmt.Errorf("graph: SetLabel on invalid node %d", v)
		return
	}
	b.labels[v] = label
}

// AddEdgeAuto connects u and v using the next free port at each endpoint.
func (b *Builder) AddEdgeAuto(u, v NodeID) {
	pu, pv := 0, 0
	if b.has(u) && b.has(v) {
		pu, pv = b.next[u], b.next[v]
	}
	b.AddEdge(u, pu, v, pv)
}

// AddEdge connects u (at port pu) and v (at port pv). Ports may be assigned
// in any order but must form a contiguous 0..deg-1 range by the time Graph
// is called.
func (b *Builder) AddEdge(u NodeID, pu int, v NodeID, pv int) {
	if b.err != nil {
		return
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
	case !b.has(u) || !b.has(v):
		b.err = fmt.Errorf("graph: AddEdge on invalid nodes %d, %d", u, v)
	case pu < 0:
		b.err = fmt.Errorf("graph: negative port %d at node %d", pu, u)
	case pv < 0:
		b.err = fmt.Errorf("graph: negative port %d at node %d", pv, v)
	default:
		b.edges = append(b.edges, loggedEdge{int32(u), int32(v), int32(min(pu, math.MaxInt32)), int32(min(pv, math.MaxInt32))})
		b.next[u] = max(b.next[u], pu+1)
		b.next[v] = max(b.next[v], pv+1)
	}
}

// Graph validates and returns the built graph. A port used twice or left
// unused below a node's highest port is an error.
func (b *Builder) Graph() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.labels)
	// Pass 1: degrees, summed into offsets.
	offsets := make([]int32, n+1)
	for _, e := range b.edges {
		offsets[e.u+1]++
		offsets[e.v+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// Pass 2: both halves of every edge, at their ports. A port at or past
	// its node's degree is not placed: it leaves a lower port of that node
	// unused, which the scan below reports.
	halves := make([]Half, 2*len(b.edges))
	for i := range halves {
		halves[i].To = -1
	}
	placed := 0
	for _, e := range b.edges {
		for _, s := range [2]loggedEdge{e, {e.v, e.u, e.pv, e.pu}} {
			if s.pu >= offsets[s.u+1]-offsets[s.u] {
				continue
			}
			h := &halves[offsets[s.u]+s.pu]
			if h.To != -1 {
				return nil, fmt.Errorf("graph: port %d at node %d already in use", s.pu, s.u)
			}
			*h = Half{To: NodeID(s.v), ToPort: int(s.pv)}
			placed++
		}
	}
	if placed < len(halves) {
		for v := 0; v < n; v++ {
			for p, h := range halves[offsets[v]:offsets[v+1]] {
				if h.To == -1 {
					return nil, fmt.Errorf("graph: unused port %d at node %d (ports must be contiguous)", p, v)
				}
			}
		}
	}
	// The graph gets its own labels, so a later SetLabel on the builder
	// cannot change a built graph.
	g := &Graph{
		labels:  slices.Clone(b.labels),
		halves:  halves,
		offsets: offsets,
		m:       len(b.edges),
	}
	// Default labels need no map. Custom ones are mapped backwards, so
	// each label keeps its first node (Validate relies on it).
	if !defaultLabels(b.labels) {
		g.byLabel = make(map[int64]NodeID, n)
		for v := n - 1; v >= 0; v-- {
			g.byLabel[b.labels[v]] = NodeID(v)
		}
	}
	// Placement made every half the mirror of another, with its ports in
	// range, and AddEdge refused self-loops: of Validate's checks only
	// distinct labels and no parallel edges can fail. When one does,
	// Validate names the problem.
	if g.byLabel != nil && len(g.byLabel) < n || g.hasParallelEdge() {
		return nil, g.Validate()
	}
	return g, nil
}

// defaultLabels reports whether every node v carries its default label
// v+1.
func defaultLabels(labels []int64) bool {
	for v, l := range labels {
		if l != int64(v)+1 {
			return false
		}
	}
	return true
}

// hasParallelEdge reports whether some node reaches a neighbor on two
// ports.
func (g *Graph) hasParallelEdge() bool {
	// stamp[u] == v+1 marks u as met among v's ports.
	stamp := make([]int32, g.N())
	for v := range g.N() {
		for _, h := range g.Ports(NodeID(v)) {
			if stamp[h.To] == int32(v)+1 {
				return true
			}
			stamp[h.To] = int32(v) + 1
		}
	}
	return false
}

// MustGraph is Graph but panics on error; for generators whose inputs are
// internally validated.
func (b *Builder) MustGraph() *Graph {
	g, err := b.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

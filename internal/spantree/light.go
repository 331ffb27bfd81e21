package spantree

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"oraclesize/internal/graph"
)

// lightScratch is Light's working storage. It holds no pointers and is
// pooled, so a call allocates only the tree edges it returns.
type lightScratch struct {
	dsu dsu
	// comp[v] is v's tree representative this phase.
	comp []graph.NodeID
	// best[r] is the lightest edge leaving r's tree found so far in this
	// phase, valid when bestW[r] >= 0.
	best     []graph.Edge
	bestW    []int
	selected []graph.Edge
}

var lightPool = sync.Pool{New: func() any { return new(lightScratch) }}

// reset makes room for n nodes. Phase 1 selects an edge per node and no
// later phase selects more, so selected never outgrows n.
func (ls *lightScratch) reset(n int) {
	ls.dsu.reset(n)
	ls.comp, ls.best = slices.Grow(ls.comp[:0], n), slices.Grow(ls.best[:0], n)
	ls.bestW, ls.selected = slices.Grow(ls.bestW[:0], n), slices.Grow(ls.selected[:0], n)
}

// Light builds the paper's Claim 3.1 spanning tree T0 with total
// contribution Σ #2(w(e)) <= 4n, by the Kruskal-variant phase construction:
//
// Phase k >= 1 identifies the "small" trees (|T| < 2^k) in the current
// forest, selects for each a minimum-weight edge leaving it, adds all
// selected edges, and breaks any cycles created by the merges. Since every
// tree alive in phase k has at least 2^(k-1) nodes, there are at most
// n/2^(k-1) of them, and each selected edge has weight at most |T|-1 < 2^k,
// costing at most k bits — so phase k contributes at most k·n/2^(k-1) bits
// and the total is at most 4n.
//
// Each phase finds every node's tree once, then picks each small tree's
// minimum outgoing edge in one pass over the CSR ports: weight first, then
// canonical order. In a simple graph (weight, U, V) names one edge, so the
// pick does not depend on the order the pass meets the candidates.
func Light(g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spantree: empty graph")
	}
	if n == 1 {
		return nil, nil
	}

	ls := lightPool.Get().(*lightScratch)
	defer lightPool.Put(ls)
	ls.reset(n)
	dsu, selected := &ls.dsu, ls.selected
	// Slicing each array to n tells the compiler the three share one
	// length, so the port loop below bounds-checks against one register;
	// with a length per array live it spills to the stack and runs 29%
	// slower on a 256-clique.
	comp, best, bestW := ls.comp[:n], ls.best[:n], ls.bestW[:n]
	treeEdges := make([]graph.Edge, 0, n-1)

	trees := n
	for k := 1; trees > 1; k++ {
		if k > 2*n {
			return nil, fmt.Errorf("spantree: phase bound exceeded (n=%d)", n)
		}
		threshold := 1 << uint(k)
		for v := range comp {
			comp[v] = dsu.find(graph.NodeID(v))
			bestW[v] = -1
		}
		// Select, for each small tree, its minimum-weight outgoing edge.
		for v, r := range comp {
			if dsu.size[r] >= threshold {
				continue
			}
			for p, h := range g.Ports(graph.NodeID(v)) {
				w, bw := min(p, h.ToPort), bestW[r]
				if comp[h.To] == r || (bw >= 0 && w > bw) {
					continue
				}
				e := graph.Edge{U: graph.NodeID(v), V: h.To, PU: p, PV: h.ToPort}.Canonical()
				if bw < 0 || w < bw || edgeLess(e, best[r]) {
					best[r], bestW[r] = e, w
				}
			}
		}
		selected = selected[:0]
		for v, r := range comp {
			if r != graph.NodeID(v) || dsu.size[r] >= threshold {
				continue
			}
			if bestW[r] < 0 {
				// A small tree with no edge out is a whole component.
				return nil, ErrNotConnected
			}
			selected = append(selected, best[r])
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
			treeEdges = append(treeEdges, e)
			trees--
		}
	}
	return treeEdges, nil
}

func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
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

// Prim builds a classical minimum-weight spanning tree under the same edge
// weights, as a comparison baseline for the Light construction: Prim
// minimizes total *weight*, while Light certifies total *encoding length*.
func Prim(g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spantree: empty graph")
	}
	if !g.Connected() {
		return nil, ErrNotConnected
	}
	inTree := make([]bool, n)
	bestEdge := make([]graph.Edge, n) // best crossing edge per outside node
	bestW := make([]int, n)
	for v := range bestW {
		bestW[v] = -1
	}
	attach := func(v graph.NodeID) {
		inTree[v] = true
		bestW[v] = -1
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			if inTree[u] {
				continue
			}
			e := graph.Edge{U: v, V: u, PU: p, PV: q}.Canonical()
			w := Weight(e)
			if bestW[u] < 0 || w < bestW[u] || (w == bestW[u] && edgeLess(e, bestEdge[u])) {
				bestEdge[u], bestW[u] = e, w
			}
		}
	}
	attach(0)
	edges := make([]graph.Edge, 0, n-1)
	for len(edges) < n-1 {
		pick := graph.NodeID(-1)
		for v := 0; v < n; v++ {
			if inTree[v] || bestW[v] < 0 {
				continue
			}
			if pick < 0 || bestW[v] < bestW[pick] ||
				(bestW[v] == bestW[pick] && edgeLess(bestEdge[v], bestEdge[pick])) {
				pick = graph.NodeID(v)
			}
		}
		if pick < 0 {
			return nil, errors.New("spantree: no crossing edge in a connected graph")
		}
		edges = append(edges, bestEdge[pick])
		attach(pick)
	}
	return edges, nil
}

package spantree

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"oraclesize/internal/graph"
)

// lightScratch is Light's working storage. It holds no pointers and is
// pooled, so a call allocates only what it appends to its destination.
type lightScratch struct {
	// label[v] is v's tree, named by one of its members. A union
	// relabels the smaller tree, so every label is exact at all times.
	label []int32
	// next[v] is the member after v in its tree's circular member list.
	next []int32
	// size[r] is the size of the tree labelled r.
	size []int32
	// trees lists the labels of the current trees, and of trees merged
	// since the phase began; live counts the current ones.
	trees []int32
	live  int
	// order[cur[v].pos:cur[v].end] holds v's candidates not yet passed,
	// each the key w<<32 | neighbour, in increasing (weight, neighbour)
	// order. order lays the nodes out in CSR order, so v owns deg(v)
	// words of it.
	order []uint64
	cur   []cursor
	// mate[v] is v's phase-1 pick; first[u] and after[x] list the nodes
	// above u whose pick is u, in increasing order; zero[v] is v's port-0
	// half-edge, its ToPort<<32 | To.
	mate, first, after []int32
	zero               []uint64
	// picks holds a phase's picks, each packed as (weight, U, V).
	picks []uint64
}

// cursor is a node's place in its candidates. They are sorted up to end,
// every candidate of weight below lim; the heavier ones are sorted in
// only when pos, the first one not passed, reaches end.
type cursor struct{ pos, end, lim int32 }

var lightPool = sync.Pool{New: func() any { return new(lightScratch) }}

// firstLim is the weight bound of a node's first sorted batch. A node of
// degree at most firstLim, as most in a sparse graph are, sorts all its
// candidates at once; a node of a dense graph sorts about 2·firstLim.
const firstLim = 8

// maxLightNodes is the largest n whose (weight, U, V) keys fit one word,
// each part being below n.
const maxLightNodes = 1 << 21

// Light builds the paper's Claim 3.1 spanning tree T0 with total
// contribution Σ #2(w(e)) <= 4n, by the Kruskal-variant phase construction.
// It is AppendLight into a new slice.
func Light(g *graph.Graph) ([]graph.Edge, error) {
	if g.N() < 2 {
		return AppendLight(nil, g)
	}
	edges, err := AppendLight(make([]graph.Edge, 0, g.N()-1), g)
	if err != nil {
		return nil, err
	}
	return edges, nil
}

// AppendLight appends the edges of Claim 3.1's tree T0 to dst, in the
// order Light returns them, for callers that drop the tree once read. On
// an error it appends nothing. It refuses graphs of more than 2^21 nodes,
// whose (weight, U, V) keys would not fit one word.
//
// Phase k >= 1 identifies the "small" trees (|T| < 2^k) in the current
// forest, selects for each a minimum-weight edge leaving it, adds all
// selected edges, and breaks any cycles created by the merges. Since every
// tree alive in phase k has at least 2^(k-1) nodes, there are at most
// n/2^(k-1) of them, and each selected edge has weight at most |T|-1 < 2^k,
// costing at most k bits — so phase k contributes at most k·n/2^(k-1) bits
// and the total is at most 4n.
//
// Edges are ordered by (weight, U, V) in canonical orientation, a strict
// order in a simple graph, and each small tree picks its least outgoing
// edge. Under a strict order a phase's picks form a forest apart from
// repeated edges (a cycle of picks would make each pick lighter than the
// next), so cycle erasure only ever drops a repeat and the merge order
// cannot change the tree. The edges are added, and appended, in (weight,
// U, V) order.
//
// A phase costs the members of its small trees, not n and their ports:
// every label is kept exact, and each node keeps its candidates in
// (weight, neighbour) order, which for a fixed node is the (weight, U, V)
// order, behind a cursor that passes an edge for good once it is internal
// (trees only merge). A node sorts its candidates in batches of doubling
// weight bound as its cursor needs them, so a dense graph sorts few.
// Phase 1 needs no order: every node picks an edge of weight 0.
func AppendLight(dst []graph.Edge, g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return dst, errors.New("spantree: empty graph")
	}
	if n == 1 {
		return dst, nil
	}
	if n > maxLightNodes {
		return dst, fmt.Errorf("spantree: Light takes at most %d nodes, got %d", maxLightNodes, n)
	}
	ls := lightPool.Get().(*lightScratch)
	defer lightPool.Put(ls)
	n0 := len(dst)
	dst, err := ls.phaseOne(dst, g)
	if err != nil {
		return dst, err
	}
	// (weight, U, V) packs into one word, as weights stay below 2^k <= n
	// in every phase k that runs (it needs two trees of at least 2^(k-1)).
	shift := uint(bits.Len(uint(n - 1)))
	for k := 2; ls.live > 1; k++ {
		threshold := int32(1) << k
		picks, trees := ls.picks[:0], ls.trees[:0]
		for _, r := range ls.trees {
			if ls.label[r] != r {
				continue // merged into another tree
			}
			if trees = append(trees, r); ls.size[r] >= threshold {
				continue
			}
			best := ^uint64(0)
			for v := r; ; {
				if key, ok := ls.head(g, v, r); ok {
					u := uint64(uint32(key))
					lo, hi := min(uint64(v), u), max(uint64(v), u)
					best = min(best, key>>32<<(2*shift)|lo<<shift|hi)
				}
				if v = ls.next[v]; v == r {
					break
				}
			}
			if best == ^uint64(0) {
				// A small tree with no edge out is a whole component.
				return dst[:n0], ErrNotConnected
			}
			picks = append(picks, best)
		}
		slices.Sort(picks)
		mask := uint64(1)<<shift - 1
		for _, e := range picks {
			dst = ls.join(dst, g, int(e>>(2*shift)), int32(e>>shift&mask), int32(e&mask))
		}
		ls.picks, ls.trees = picks, trees
	}
	return dst, nil
}

// phaseOne resets ls for g and runs phase 1, where every tree is a single
// node. A node's lightest edges weigh 0: its port-0 edge and every edge on
// which the neighbour's port is 0. It picks the one to its least
// neighbour, its mate.
//
// The picks need no joins. Each node points at its mate, and the only
// cycles of picks are mutual pairs, so each new tree is the nodes whose
// mate chain ends in one mutual pair, labelled by the pair's lower node.
// All picks weigh 0, so (U, V) order is one pass over buckets by lower
// endpoint U: U's own pick, if its mate is above U, is the least of its
// bucket (every other pick there is a weight-0 edge at U), and the nodes
// above U whose mate is U follow in increasing order.
func (ls *lightScratch) phaseOne(dst []graph.Edge, g *graph.Graph) ([]graph.Edge, error) {
	n := g.N()
	ls.label = slices.Grow(ls.label[:0], n)[:n]
	ls.next = slices.Grow(ls.next[:0], n)[:n]
	ls.size = slices.Grow(ls.size[:0], n)[:n]
	ls.cur = slices.Grow(ls.cur[:0], n)[:n]
	ls.mate = slices.Grow(ls.mate[:0], n)[:n]
	ls.first = slices.Grow(ls.first[:0], n)[:n]
	ls.after = slices.Grow(ls.after[:0], n)[:n]
	ls.zero = slices.Grow(ls.zero[:0], n)[:n]
	label, next, size := ls.label, ls.next[:n], ls.size[:n]
	mate, first, after, zero := ls.mate[:n], ls.first[:n], ls.after[:n], ls.zero[:n]
	for v := range mate {
		mate[v], first[v], label[v], size[v] = math.MaxInt32, -1, -1, 0
	}
	off := int32(0)
	for v := range mate {
		ports := g.Ports(graph.NodeID(v))
		if len(ports) == 0 {
			return dst, ErrNotConnected
		}
		ls.cur[v] = cursor{pos: off, end: off}
		off += int32(len(ports))
		t := int32(ports[0].To)
		zero[v] = uint64(ports[0].ToPort)<<32 | uint64(t)
		mate[v], mate[t] = min(mate[v], t), min(mate[t], int32(v))
	}
	ls.order = slices.Grow(ls.order[:0], int(off))[:off]
	trees := ls.trees[:0]
	for x := range label {
		r := int32(x)
		for label[r] < 0 {
			if m := mate[r]; mate[m] == r {
				r = min(r, m)
				label[r], label[mate[r]], next[r] = r, r, r
				trees = append(trees, r)
				break
			}
			r = mate[r]
		}
		r = label[r]
		for y := int32(x); label[y] < 0; y = mate[y] {
			label[y] = r
		}
		if size[r]++; int32(x) != r {
			next[x], next[r] = next[r], int32(x)
		}
	}
	ls.trees, ls.live = trees, len(trees)
	for x := n - 1; x >= 0; x-- {
		if u := mate[x]; u < int32(x) {
			after[x], first[u] = first[u], int32(x)
		}
	}
	for u := range n {
		m := mate[u]
		if m > int32(u) {
			dst = append(dst, zeroEdge(zero, int32(u), m))
		}
		for x := first[u]; x >= 0; x = after[x] {
			if x != m { // else the mutual pick, already added
				dst = append(dst, zeroEdge(zero, int32(u), x))
			}
		}
	}
	return dst, nil
}

// head returns v's least candidate leaving tree r, the key w<<32 |
// neighbour, moving v's cursor past the internal ones and sorting in
// v's next batch when the cursor reaches the end of what is sorted.
func (ls *lightScratch) head(g *graph.Graph, v, r int32) (uint64, bool) {
	c := &ls.cur[v]
	pos, end := c.pos, c.end
	for {
		for ; pos < end; pos++ {
			if key := ls.order[pos]; ls.label[uint32(key)] != r {
				c.pos = pos
				return key, true
			}
		}
		ports := g.Ports(graph.NodeID(v))
		lo := int(c.lim)
		if lo >= len(ports) {
			c.pos = pos
			return 0, false
		}
		// The batch is the external candidates of weight in [lo, hi). A
		// weight min(p, q) is at most the port p, so ports below lo hold
		// only lighter candidates, which earlier batches took.
		hi := max(2*lo, firstLim)
		for p := lo; p < len(ports); p++ {
			h := ports[p]
			w := min(p, h.ToPort)
			// Writing every candidate and keeping the external ones
			// leaves nothing for the branch predictor to miss.
			ls.order[end] = uint64(w)<<32 | uint64(h.To)
			keep := int32(0)
			if ls.label[h.To] != r {
				keep = 1
			}
			if h.ToPort < lo || w >= hi {
				keep = 0
			}
			end += keep
		}
		if end-pos > 1 {
			slices.Sort(ls.order[pos:end])
		}
		c.end, c.lim = end, int32(hi)
	}
}

// join adds the edge {u, v} (u < v) of weight w unless it is a repeat,
// whose endpoints an earlier join of the phase has already merged: it
// merges their trees, relabelling the smaller, and appends the edge.
func (ls *lightScratch) join(dst []graph.Edge, g *graph.Graph, w int, u, v int32) []graph.Edge {
	a, b := ls.label[u], ls.label[v]
	if a == b {
		return dst
	}
	if ls.size[a] < ls.size[b] {
		a, b = b, a
	}
	for x := b; ; {
		ls.label[x] = a
		if x = ls.next[x]; x == b {
			break
		}
	}
	ls.next[a], ls.next[b] = ls.next[b], ls.next[a]
	ls.size[a] += ls.size[b]
	ls.live--
	return append(dst, edge(g, w, u, v))
}

// zeroEdge returns the weight-0 edge {u, v} (u < v): u's port-0 edge, or
// else v's.
func zeroEdge(zero []uint64, u, v int32) graph.Edge {
	if h := zero[u]; int32(h) == v {
		return graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), PU: 0, PV: int(h >> 32)}
	}
	return graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), PU: int(zero[v] >> 32), PV: 0}
}

// edge returns the edge {u, v} (u < v) of weight w, whose weight names its
// ports: u's port w is the edge, or else v's port w is.
func edge(g *graph.Graph, w int, u, v int32) graph.Edge {
	e := graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), PU: w, PV: w}
	if to, q := g.Neighbor(e.U, w); to == e.V {
		e.PV = q
	} else {
		_, e.PU = g.Neighbor(e.V, w)
	}
	return e
}

func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
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

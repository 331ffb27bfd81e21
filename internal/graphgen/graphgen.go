// Package graphgen builds the graph families used by the experiments:
// standard topologies (paths, cycles, trees, grids, hypercubes, random
// connected graphs) and the two families at the heart of the paper's lower
// bounds — the subdivided complete graphs G_{n,S} of Section 2 and the
// clique-gadget graphs G_{n,S,C} of Section 3.
//
// All generators are deterministic given their inputs; randomized ones take
// an explicit *rand.Rand or, where they draw from their own pooled copy of
// math/rand's source (RandomRegular, Family.Generate), a seed.
package graphgen

import (
	"fmt"
	"math/bits"
	"math/rand"

	"oraclesize/internal/graph"
)

// Path returns the path on n >= 1 nodes, labeled 1..n.
func Path(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graphgen: path needs n >= 1, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Graph()
}

// Cycle returns the cycle on n >= 3 nodes.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graphgen: cycle needs n >= 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Graph()
}

// Star returns the star with one center (node 0) and n-1 leaves.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graphgen: star needs n >= 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdgeAuto(0, graph.NodeID(i))
	}
	return b.Graph()
}

// DAryTree returns the complete-as-possible d-ary tree on n nodes, filled in
// BFS order (node i's parent is node (i-1)/d).
func DAryTree(n, d int) (*graph.Graph, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("graphgen: d-ary tree needs n >= 1, d >= 1, got n=%d d=%d", n, d)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdgeAuto(graph.NodeID((i-1)/d), graph.NodeID(i))
	}
	return b.Graph()
}

// Grid returns the rows x cols grid.
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("graphgen: grid needs at least 2 nodes, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	b.Grow(rows*(cols-1) + (rows-1)*cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdgeAuto(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdgeAuto(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube (2^d nodes); the port at a
// node for dimension i is i, a natural dimensional port labeling.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("graphgen: hypercube dimension %d out of range [1,20]", d)
	}
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			u := v ^ (1 << uint(i))
			if v < u {
				b.AddEdge(graph.NodeID(v), i, graph.NodeID(u), i)
			}
		}
	}
	return b.Graph()
}

// Complete returns K*_n: the complete graph on labels 1..n with the
// canonical rotational port labeling, port_i(j) = ((j - i) mod n) - 1.
//
// The paper defines the port at i toward j as (i-j) mod (n-1); taken
// literally that assignment collides (see DESIGN.md §2.1), so this package
// uses the standard rotational labeling, which is a proper assignment with
// the same structural role.
func Complete(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graphgen: complete graph needs n >= 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			b.AddEdge(graph.NodeID(i-1), completePort(i, j, n), graph.NodeID(j-1), completePort(j, i, n))
		}
	}
	return b.Graph()
}

// completePort returns the canonical K*_n port at label i toward label j.
func completePort(i, j, n int) int {
	return mod(j-i, n) - 1
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// LabelEdge is an edge of K*_n named by its endpoint labels, with U < V.
type LabelEdge struct {
	U, V int
}

// Canon returns the edge with endpoints ordered.
func (e LabelEdge) Canon() LabelEdge {
	if e.U > e.V {
		return LabelEdge{U: e.V, V: e.U}
	}
	return e
}

// AllCompleteEdges enumerates the C(n,2) edges of K*_n in lexicographic
// order.
func AllCompleteEdges(n int) []LabelEdge {
	edges := make([]LabelEdge, 0, n*(n-1)/2)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			edges = append(edges, LabelEdge{U: i, V: j})
		}
	}
	return edges
}

// RandomEdgeTuple draws count distinct edges of K*_n uniformly at random,
// in tuple order (the order matters: in G_{n,S} the i-th edge hides the node
// labeled n+i).
func RandomEdgeTuple(n, count int, rng *rand.Rand) ([]LabelEdge, error) {
	total := n * (n - 1) / 2
	if count > total {
		return nil, fmt.Errorf("graphgen: cannot pick %d distinct edges from K_%d (%d edges)", count, n, total)
	}
	all := AllCompleteEdges(n)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:count], nil
}

// SubdividedComplete builds the graph G_{n,S} of Section 2: K*_n in which,
// for each i, a new node w_i labeled n+i is inserted in the middle of edge
// s[i-1] = {u_i, v_i}. The ports at u_i and v_i are unchanged; at w_i, port 0
// leads to the smaller-labeled endpoint and port 1 to the larger. The paper
// takes |S| = n, but any tuple of distinct edges is accepted (the remark
// after Theorem 2.2 uses |S| = c·n).
func SubdividedComplete(n int, s []LabelEdge) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graphgen: G_{n,S} needs n >= 3, got %d", n)
	}
	hidden := make(map[LabelEdge]int, len(s)) // canonical edge -> index in S (1-based)
	for i, e := range s {
		e = e.Canon()
		if e.U < 1 || e.V > n || e.U == e.V {
			return nil, fmt.Errorf("graphgen: S[%d] = {%d,%d} is not an edge of K_%d", i, e.U, e.V, n)
		}
		if _, dup := hidden[e]; dup {
			return nil, fmt.Errorf("graphgen: S[%d] = {%d,%d} repeats an earlier edge", i, e.U, e.V)
		}
		hidden[e] = i + 1
	}
	b := graph.NewBuilder(n + len(s))
	for i := 0; i < len(s); i++ {
		b.SetLabel(graph.NodeID(n+i), int64(n+i+1))
	}
	for _, e := range AllCompleteEdges(n) {
		pu := completePort(e.U, e.V, n)
		pv := completePort(e.V, e.U, n)
		u := graph.NodeID(e.U - 1)
		v := graph.NodeID(e.V - 1)
		if idx, sub := hidden[e]; sub {
			w := graph.NodeID(n + idx - 1)
			b.AddEdge(u, pu, w, 0)
			b.AddEdge(v, pv, w, 1)
		} else {
			b.AddEdge(u, pu, v, pv)
		}
	}
	return b.Graph()
}

// GadgetPair is one entry of the paper's set C: the clique edge {a,b}
// (1 <= a < b <= k, in clique-local labels) removed from H_i and rewired to
// the outside.
type GadgetPair struct {
	A, B int
}

// RandomGadgetPairs draws count independent uniformly random pairs (a,b)
// with 1 <= a < b <= k.
func RandomGadgetPairs(count, k int, rng *rand.Rand) []GadgetPair {
	pairs := make([]GadgetPair, count)
	for i := range pairs {
		a := rng.Intn(k) + 1
		bv := rng.Intn(k-1) + 1
		if bv >= a {
			bv++
		}
		if a > bv {
			a, bv = bv, a
		}
		pairs[i] = GadgetPair{A: a, B: bv}
	}
	return pairs
}

// CliqueGadget builds the graph G_{n,S,C} of Section 3: K*_n in which each
// edge e_i = s[i-1] = {u_i, v_i} (labels u_i < v_i) is replaced by a k-node
// clique H_i. Clique H_i occupies labels n+(i-1)k+1 .. n+ik; its internal
// edge f_i = {a_i, b_i} = c[i-1] (local labels) is removed, and a_i is
// connected to u_i while b_i is connected to v_i, inheriting the port
// numbers of the replaced edges on both sides. Every clique node has degree
// k-1 and original nodes keep degree n-1, exactly as in the paper.
func CliqueGadget(n, k int, s []LabelEdge, c []GadgetPair) (*graph.Graph, error) {
	if k < 3 {
		return nil, fmt.Errorf("graphgen: clique gadget needs k >= 3, got %d", k)
	}
	if len(s) != len(c) {
		return nil, fmt.Errorf("graphgen: |S| = %d but |C| = %d", len(s), len(c))
	}
	replaced := make(map[LabelEdge]int, len(s)) // canonical edge -> index (1-based)
	for i, e := range s {
		e = e.Canon()
		if e.U < 1 || e.V > n || e.U == e.V {
			return nil, fmt.Errorf("graphgen: S[%d] = {%d,%d} is not an edge of K_%d", i, e.U, e.V, n)
		}
		if _, dup := replaced[e]; dup {
			return nil, fmt.Errorf("graphgen: S[%d] = {%d,%d} repeats an earlier edge", i, e.U, e.V)
		}
		replaced[e] = i + 1
	}
	for i, p := range c {
		if p.A < 1 || p.B > k || p.A >= p.B {
			return nil, fmt.Errorf("graphgen: C[%d] = (%d,%d) is not a pair with 1 <= a < b <= %d", i, p.A, p.B, k)
		}
	}

	total := n + len(s)*k
	b := graph.NewBuilder(total)
	// cliqueNode maps (gadget index 1-based, local label 1..k) to the node.
	cliqueNode := func(i, a int) graph.NodeID { return graph.NodeID(n + (i-1)*k + a - 1) }
	for i := 1; i <= len(s); i++ {
		for a := 1; a <= k; a++ {
			b.SetLabel(cliqueNode(i, a), int64(n+(i-1)*k+a))
		}
	}
	// localPort is the rotational port labeling inside a k-clique; the paper
	// writes (a-b) mod (k-1) which has the same collision issue as for K*_n,
	// so the canonical rotational labeling is used (DESIGN.md §2.1).
	localPort := func(a, bb int) int { return mod(bb-a, k) - 1 }

	// Edges of K*_n, with replaced ones expanded into gadget attachments.
	for _, e := range AllCompleteEdges(n) {
		pu := completePort(e.U, e.V, n)
		pv := completePort(e.V, e.U, n)
		u := graph.NodeID(e.U - 1)
		v := graph.NodeID(e.V - 1)
		idx, sub := replaced[e]
		if !sub {
			b.AddEdge(u, pu, v, pv)
			continue
		}
		pair := c[idx-1]
		// a_i attaches to the smaller-labeled endpoint u, b_i to v; the
		// attachment edges inherit the ports of e_i at u, v and of f_i at
		// a_i, b_i.
		aNode := cliqueNode(idx, pair.A)
		bNode := cliqueNode(idx, pair.B)
		b.AddEdge(u, pu, aNode, localPort(pair.A, pair.B))
		b.AddEdge(v, pv, bNode, localPort(pair.B, pair.A))
	}
	// Internal clique edges, minus the removed f_i.
	for i := 1; i <= len(s); i++ {
		pair := c[i-1]
		for a := 1; a <= k; a++ {
			for bb := a + 1; bb <= k; bb++ {
				if a == pair.A && bb == pair.B {
					continue
				}
				b.AddEdge(cliqueNode(i, a), localPort(a, bb), cliqueNode(i, bb), localPort(bb, a))
			}
		}
	}
	return b.Graph()
}

// RandomConnected returns a connected graph on n nodes with m edges,
// n-1 <= m <= C(n,2): a uniform random recursive tree plus m-(n-1) random
// extra edges. Port numbers are assigned in insertion order and then
// shuffled per node, so they carry no structural hints.
func RandomConnected(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graphgen: random connected graph needs n >= 2, got %d", n)
	}
	maxM := n * (n - 1) / 2
	if m < n-1 || m > maxM {
		return nil, fmt.Errorf("graphgen: m = %d out of range [%d, %d]", m, n-1, maxM)
	}
	// Edge {u,v} with u < v is the key u<<32 | v, which is never 0, so 0
	// marks a free slot of the open-addressed set used, at most half full.
	keys := make([]uint64, 0, m)
	used := make([]uint64, 1<<bits.Len(uint(2*m-1)))
	shift := 64 - bits.Len(uint(len(used)-1))
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(v)
		for i := (k * 0x9e3779b97f4a7c15) >> shift; ; i = (i + 1) & uint64(len(used)-1) {
			switch used[i] {
			case k:
				return
			case 0:
				used[i] = k
				keys = append(keys, k)
				return
			}
		}
	}
	// Random recursive tree.
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for len(keys) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	// The shuffle starts from (u, v) order, as it always has; starting
	// from draw order would give other graphs for the same seeds. Two
	// stable counting passes sort the keys: by v, then by u, through the
	// set's first m slots, which it no longer needs.
	cnt := make([]int32, n+1)
	countingPass(keys, used[:m], cnt, func(k uint64) uint64 { return uint64(uint32(k)) })
	countingPass(used[:m], keys, cnt, func(k uint64) uint64 { return k >> 32 })
	for i := len(keys) - 1; i > 0; i-- {
		j := shuffleDraw(rng, i)
		keys[i], keys[j] = keys[j], keys[i]
	}
	// In shuffled order each edge takes the next insertion port at both
	// endpoints; that port then goes through its node's permutation.
	off := make([]int32, n+1)
	for _, k := range keys {
		off[k>>32+1]++
		off[uint32(k)+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	perm := portPerms(off, rng)
	b := graph.NewBuilder(n)
	b.Grow(m)
	for _, k := range keys {
		u, v := k>>32, uint64(uint32(k))
		b.AddEdge(graph.NodeID(u), int(perm[off[u]]), graph.NodeID(v), int(perm[off[v]]))
		off[u]++
		off[v]++
	}
	return b.Graph()
}

// countingPass stably moves src into dst in ascending order of key, each
// key below len(cnt)-1, counting in cnt.
func countingPass(src, dst []uint64, cnt []int32, key func(uint64) uint64) {
	clear(cnt)
	for _, k := range src {
		cnt[key(k)+1]++
	}
	for x := 1; x < len(cnt); x++ {
		cnt[x] += cnt[x-1]
	}
	for _, k := range src {
		x := key(k)
		dst[cnt[x]] = k
		cnt[x]++
	}
}

// portPerms draws every node's port permutation in node order, each
// exactly as rng.Perm(deg) would (the same Intn(i+1) loop), into one
// buffer: node v's port p becomes port perm[off[v]+p], where off holds
// the n+1 prefix sums of the degrees. Generators that build a graph with
// its ports already shuffled draw the same numbers as building it first
// and calling ShufflePorts.
func portPerms(off []int32, rng *rand.Rand) []int32 {
	perm := make([]int32, off[len(off)-1])
	for v := 0; v+1 < len(off); v++ {
		p := perm[off[v]:off[v+1]]
		for i := range p {
			j := rng.Intn(i + 1)
			p[i] = p[j]
			p[j] = int32(i)
		}
	}
	return perm
}

// ShufflePorts returns a copy of g in which every node's port numbering is
// independently permuted uniformly at random. Labels and adjacency are
// preserved; only the local port-to-neighbor maps change.
func ShufflePorts(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(graph.NodeID(v)))
	}
	perm := portPerms(off, rng)
	b := graph.NewBuilder(n)
	b.Grow(g.M())
	for v := graph.NodeID(0); int(v) < n; v++ {
		b.SetLabel(v, g.Label(v))
		for p, h := range g.Ports(v) {
			if v < h.To {
				b.AddEdge(v, int(perm[int(off[v])+p]), h.To, int(perm[int(off[h.To])+h.ToPort]))
			}
		}
	}
	return b.Graph()
}

// Lollipop returns a clique on cliqueSize nodes with a path of pathLen extra
// nodes attached to clique node 0 — a classic worst case mixing dense and
// sparse regions.
func Lollipop(cliqueSize, pathLen int) (*graph.Graph, error) {
	if cliqueSize < 3 || pathLen < 1 {
		return nil, fmt.Errorf("graphgen: lollipop needs cliqueSize >= 3 and pathLen >= 1, got %d, %d", cliqueSize, pathLen)
	}
	n := cliqueSize + pathLen
	b := graph.NewBuilder(n)
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(j))
		}
	}
	b.AddEdgeAuto(0, graph.NodeID(cliqueSize))
	for i := cliqueSize; i < n-1; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Graph()
}

// Caterpillar returns a path of spineLen nodes with legsPerNode leaves
// hanging off each spine node.
func Caterpillar(spineLen, legsPerNode int) (*graph.Graph, error) {
	if spineLen < 1 || legsPerNode < 0 {
		return nil, fmt.Errorf("graphgen: caterpillar needs spineLen >= 1, legs >= 0, got %d, %d", spineLen, legsPerNode)
	}
	n := spineLen * (1 + legsPerNode)
	if n < 2 {
		return nil, fmt.Errorf("graphgen: caterpillar with %d nodes is too small", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < spineLen-1; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerNode; l++ {
			b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(next))
			next++
		}
	}
	return b.Graph()
}

package graphgen

import (
	"fmt"
	"math/rand"
	"slices"

	"oraclesize/internal/graph"
)

// CompleteBipartite returns K_{a,b}: parts of a and b nodes, every
// cross-pair connected.
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	if a < 1 || b < 1 || a+b < 2 {
		return nil, fmt.Errorf("graphgen: K_{%d,%d} is degenerate", a, b)
	}
	bl := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdgeAuto(graph.NodeID(i), graph.NodeID(a+j))
		}
	}
	return bl.Graph()
}

// Torus returns the rows x cols wraparound grid (each at least 3 to avoid
// parallel edges).
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graphgen: torus needs sides >= 3, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdgeAuto(id(r, c), id(r, (c+1)%cols))
			b.AddEdgeAuto(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Graph()
}

// Wheel returns a cycle of n-1 nodes plus a hub adjacent to all of them.
func Wheel(n int) (*graph.Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graphgen: wheel needs n >= 4, got %d", n)
	}
	b := graph.NewBuilder(n)
	rim := n - 1
	for i := 0; i < rim; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID((i+1)%rim))
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(rim))
	}
	return b.Graph()
}

// RandomRegular returns a connected random d-regular graph on n nodes via
// the pairing model with rejection (n·d must be even, d < n). It retries
// until the multigraph is simple and connected, so very small parameter
// combinations may take a few attempts.
func RandomRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graphgen: no %d-regular graph on %d nodes", d, n)
	}
	// The pairing model succeeds with probability ~exp(-(d²-1)/4), so the
	// attempt budget must grow with d²; 50000 covers d <= 7 comfortably.
	const maxAttempts = 50000
	p := pairing{
		d:     d,
		stubs: make([]int32, n*d),
		nbr:   make([]int32, n*d),
		back:  make([]int32, n*d),
		deg:   make([]int32, n),
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if p.try(rng) && p.connected() {
			return p.graph(rng)
		}
	}
	return nil, fmt.Errorf("graphgen: failed to sample a connected %d-regular graph on %d nodes", d, n)
}

// pairing is the configuration model's scratch, reused across attempts.
// Node v's k-th edge in pairing order leads to nbr[v*d+k], where it is
// that node's back[v*d+k]-th edge; deg counts each node's edges so far.
type pairing struct {
	d                int
	stubs, nbr, back []int32
	deg              []int32
}

// try runs one round of the configuration model: stubs are paired
// uniformly; the attempt fails on self-loops or parallel edges.
func (p *pairing) try(rng *rand.Rand) bool {
	stubs, d := p.stubs, int32(p.d)
	for v := range p.deg {
		for k := v * p.d; k < (v+1)*p.d; k++ {
			stubs[k] = int32(v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	clear(p.deg)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || slices.Contains(p.nbr[u*d:u*d+p.deg[u]], v) {
			return false
		}
		pu, pv := p.deg[u], p.deg[v]
		p.nbr[u*d+pu], p.back[u*d+pu] = v, pv
		p.nbr[v*d+pv], p.back[v*d+pv] = u, pu
		p.deg[u]++
		p.deg[v]++
	}
	return true
}

// connected reports whether the last successful pairing is connected, by
// a breadth-first search that queues nodes in stubs (free until the next
// try) and marks them in deg.
func (p *pairing) connected() bool {
	queue, seen := p.stubs[:1], p.deg
	queue[0] = 0
	clear(seen)
	seen[0] = 1
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, v := range p.nbr[u*int32(p.d) : (u+1)*int32(p.d)] {
			if seen[v] == 0 {
				seen[v] = 1
				queue = append(queue, v)
			}
		}
	}
	return len(queue) == len(seen)
}

// graph builds the last pairing with every node's ports shuffled, drawing
// the permutations ShufflePorts would draw on it.
func (p *pairing) graph(rng *rand.Rand) (*graph.Graph, error) {
	n, d := len(p.deg), p.d
	off := make([]int32, n+1)
	for v := range off {
		off[v] = int32(v * d)
	}
	perm := portPerms(off, rng)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for k := u * d; k < (u+1)*d; k++ {
			if v := int(p.nbr[k]); u < v {
				b.AddEdge(graph.NodeID(u), int(perm[k]), graph.NodeID(v), int(perm[v*d+int(p.back[k])]))
			}
		}
	}
	return b.Graph()
}

// ShuffleLabels returns a copy of g whose node labels are a uniformly
// random permutation of the originals. Port structure is unchanged.
// Label-dependent protocols (e.g. radio round-robin) behave very
// differently on sorted vs shuffled labels.
func ShuffleLabels(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	n := g.N()
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = g.Label(graph.NodeID(v))
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	b := graph.NewBuilder(n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		b.SetLabel(v, labels[v])
		for p, h := range g.Ports(v) {
			if v < h.To {
				b.AddEdge(v, p, h.To, h.ToPort)
			}
		}
	}
	return b.Graph()
}

// Broom returns a path of handleLen nodes ending in a star of bristles
// leaves — a worst case for eccentricity-sensitive schemes.
func Broom(handleLen, bristles int) (*graph.Graph, error) {
	if handleLen < 1 || bristles < 1 {
		return nil, fmt.Errorf("graphgen: broom needs handleLen >= 1 and bristles >= 1")
	}
	n := handleLen + bristles
	b := graph.NewBuilder(n)
	for i := 0; i < handleLen-1; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	tip := graph.NodeID(handleLen - 1)
	for i := 0; i < bristles; i++ {
		b.AddEdgeAuto(tip, graph.NodeID(handleLen+i))
	}
	return b.Graph()
}

// BinomialTree returns the binomial tree B_k on 2^k nodes (the recursive
// doubling communication pattern).
func BinomialTree(k int) (*graph.Graph, error) {
	if k < 0 || k > 20 {
		return nil, fmt.Errorf("graphgen: binomial tree order %d out of range [0,20]", k)
	}
	n := 1 << uint(k)
	if n < 2 {
		return nil, fmt.Errorf("graphgen: binomial tree B_0 has a single node")
	}
	b := graph.NewBuilder(n)
	// Node v's parent clears v's lowest set bit.
	for v := 1; v < n; v++ {
		parent := v & (v - 1)
		b.AddEdgeAuto(graph.NodeID(parent), graph.NodeID(v))
	}
	return b.Graph()
}

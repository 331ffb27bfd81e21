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
// combinations may take a few attempts. It draws from a pooled copy of
// math/rand's source seeded with seed: the graph is the one the same
// pairing drawing from rand.New(rand.NewSource(seed)) builds.
func RandomRegular(n, d int, seed int64) (*graph.Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graphgen: no %d-regular graph on %d nodes", d, n)
	}
	// The pairing model yields a simple graph with probability about
	// exp(-(d²-1)/4) as n grows: about 43 expected attempts at d = 4 (the
	// random-regular family's degree), 6,300 at d = 6 and 163,000 at d = 7,
	// so this budget covers d <= 6 at large n. Small dense cases do much
	// worse: RandomRegular(12, 6) runs out of attempts for seeds 1 and 3,
	// and generators.golden pins both errors.
	const maxAttempts = 50000
	p := pairing{
		d:     d,
		tmpl:  make([]int32, n*d),
		stubs: make([]int32, n*d),
		nbr:   make([]int32, n*d),
		back:  make([]int32, n*d),
		deg:   make([]int32, n),
		sig:   make([]uint64, n),
	}
	for k := range p.tmpl {
		p.tmpl[k] = int32(k / d)
	}
	s := newSeeded(seed)
	defer seededPool.Put(s)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if p.try(&s.src) && p.connected() {
			return p.graph(s.rng)
		}
	}
	return nil, fmt.Errorf("graphgen: failed to sample a connected %d-regular graph on %d nodes", d, n)
}

// pairing is the configuration model's scratch, reused across attempts.
// tmpl holds every node's d stubs in node order, and deg counts each
// node's edges so far. While an attempt runs, nbr[v*d:(v+1)*d] holds v's
// neighbors so far plus one (0 marks a free slot), and sig[v] has bit
// u&63 set for each neighbor u, so most pairs clear the repeated-edge
// check on one word. A simple pairing then rewrites nbr: node v's k-th
// edge in pairing order leads to nbr[v*d+k], where it is that node's
// back[v*d+k]-th edge.
type pairing struct {
	d                      int
	tmpl, stubs, nbr, back []int32
	deg                    []int32
	sig                    []uint64
}

// try runs one round of the configuration model: the stubs are shuffled
// and paired in order, and the attempt fails on a self-loop or a repeated
// edge. It draws exactly what rand.New(src).Shuffle(len(stubs), swap)
// draws, but inline, from the concrete source: Fisher–Yates fixes
// position i at step i, from the end, so pair (i, i+1) is checked as soon
// as step i fixes it, and on the first defect the attempt only burns the
// draws of its remaining steps. A simple pairing is then recorded again
// in forward pair order, so every node's edges, and with them the ports,
// come in the order they always have.
func (p *pairing) try(src *source) bool {
	// Locals, so the loop does not reload the slice headers through p
	// after every store.
	stubs, nbr, deg, sig, d := p.stubs, p.nbr, p.deg, p.sig, int32(p.d)
	copy(stubs, p.tmpl)
	clear(nbr)
	clear(sig)
	clear(deg)
	for i := len(stubs) - 1; i > 0; i-- {
		// j is rand.Shuffle's draw for position i, as shuffleDraw makes
		// it; this loop and burnShuffle spell it out, because a call per
		// draw costs as much as the draw.
		bound := uint64(i + 1)
		prod := uint64(src.Uint32()) * bound
		if uint32(prod) < uint32(bound) {
			prod = shuffleRedraw(src, prod, uint32(bound))
		}
		j := prod >> 32
		stubs[i], stubs[j] = stubs[j], stubs[i]
		if i&1 == 1 && i > 1 {
			continue // pair (i-1, i) is complete only after step i-1
		}
		// Step 1 also fixes position 0, completing pair (0, 1).
		lo := i &^ 1
		u, v := stubs[lo], stubs[lo+1]
		bu, bv := uint64(1)<<(v&63), uint64(1)<<(u&63)
		if u == v || sig[u]&bu != 0 && slices.Contains(nbr[u*d:(u+1)*d], v+1) {
			burnShuffle(src, i-1)
			return false
		}
		sig[u] |= bu
		sig[v] |= bv
		nbr[u*d+deg[u]] = v + 1
		nbr[v*d+deg[v]] = u + 1
		deg[u]++
		deg[v]++
	}
	clear(deg)
	back := p.back
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		pu, pv := deg[u], deg[v]
		nbr[u*d+pu], back[u*d+pu] = v, pv
		nbr[v*d+pv], back[v*d+pv] = u, pu
		deg[u]++
		deg[v]++
	}
	return true
}

// shuffleDraw returns the partner j in [0, i] that rng.Shuffle draws for
// position i (for i < 2³¹-1): Lemire's multiply-shift reduction of one
// Uint32, redrawing (rarely) while the low half of the product falls
// below 2³² mod (i+1).
func shuffleDraw(rng *rand.Rand, i int) int {
	bound := uint64(i + 1)
	prod := uint64(rng.Uint32()) * bound
	if uint32(prod) < uint32(bound) {
		thresh := -uint32(bound) % uint32(bound)
		for uint32(prod) < thresh {
			prod = uint64(rng.Uint32()) * bound
		}
	}
	return int(prod >> 32)
}

// burnShuffle consumes the draws rand.Shuffle makes for positions i down
// to 1, as shuffleDraw would, without using them. Until tap or feed next
// wraps, src's draws are the plain recurrence feed[k] += tap[k] over two
// index ranges walked downwards, so it steps them a run at a time, without
// Uint64's per-draw wrap checks, and hands src its position back at the
// end of the run or before a (rare) redraw.
func burnShuffle(src *source, i int) {
runs:
	for i > 0 {
		run := min(i, src.tap, src.feed)
		if run == 0 {
			// tap or feed wraps on this draw.
			bound := uint64(i + 1)
			if prod := uint64(src.Uint32()) * bound; uint32(prod) < uint32(bound) {
				shuffleRedraw(src, prod, uint32(bound))
			}
			i--
			continue
		}
		feed := src.vec[src.feed-run : src.feed]
		tap := src.vec[src.tap-run : src.tap][:len(feed)]
		for k := len(feed) - 1; k >= 0; k-- {
			x := feed[k] + tap[k]
			feed[k] = x
			bound := uint64(i + 1)
			i--
			// x's Uint32 is its bits 31 to 62, as in source.Uint32.
			if prod := uint64(uint32(uint64(x)>>31)) * bound; uint32(prod) < uint32(bound) {
				src.tap -= len(feed) - k
				src.feed -= len(feed) - k
				shuffleRedraw(src, prod, uint32(bound))
				continue runs
			}
		}
		src.tap -= run
		src.feed -= run
	}
}

// shuffleRedraw is shuffleDraw's rejection loop over a source: it redraws
// while the low half of prod falls below 2³² mod n.
func shuffleRedraw(src *source, prod uint64, n uint32) uint64 {
	thresh := -n % n
	for uint32(prod) < thresh {
		prod = uint64(src.Uint32()) * uint64(n)
	}
	return prod
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
	b.Grow(n * d / 2)
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

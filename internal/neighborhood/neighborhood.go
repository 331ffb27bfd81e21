// Package neighborhood implements the *traditional* kind of network
// knowledge the paper's introduction contrasts itself against (§1.1, citing
// Awerbuch–Goldreich–Peleg–Vainish): instead of an arbitrary advice string,
// every node knows its radius-1 ball — its neighbors' labels and the edges
// among them — and must act on that structured knowledge alone.
//
// The package measures what that knowledge costs in bits (the ball
// encoding is Θ(Σ deg·log n + Σ deg²) — far more than the paper's oracles)
// and what it buys in messages: with the ball, a node can locally apply a
// relative-neighborhood sparsification — drop edge {u,v} whenever some
// common neighbor w closes a triangle whose two other edges are smaller in
// a total order — and flood on the surviving subgraph. The sparsified
// subgraph is provably connected (the largest edge of any shortcut
// triangle is redundant, inductively), so wakeup completes with
// 2·|sparse edges| messages instead of 2m: the knowledge/communication
// trade-off of the cited line of work, on the paper's quantitative scale.
package neighborhood

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// BallOracle gives every node its radius-1 ball: its own label, its
// neighbors' labels in port order, and the adjacency bitmap among its
// neighbors.
type BallOracle struct{}

// Name implements oracle.Oracle.
func (BallOracle) Name() string { return "radius-1-ball" }

// Advise implements oracle.Oracle.
func (BallOracle) Advise(g *graph.Graph, _ graph.NodeID) (sim.Advice, error) {
	labelW := oracle.FieldWidth(int(g.MaxLabel()) + 1)
	advice := make(sim.Advice, g.N())
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		deg := g.Degree(v)
		var w bitstring.Writer
		w.AppendDoubled(uint64(labelW))
		for p := 0; p < deg; p++ {
			u, _ := g.Neighbor(v, p)
			w.WriteFixed(uint64(g.Label(u)), labelW)
		}
		// Adjacency among neighbors: one bit per unordered port pair.
		for p := 0; p < deg; p++ {
			up, _ := g.Neighbor(v, p)
			for q := p + 1; q < deg; q++ {
				uq, _ := g.Neighbor(v, q)
				w.WriteBit(g.HasEdge(up, uq))
			}
		}
		advice[v] = w.String()
	}
	return advice, nil
}

// Ball is a decoded radius-1 view.
type Ball struct {
	// NeighborLabels[p] is the label behind port p.
	NeighborLabels []int64
	// adj[p][q] reports whether the neighbors behind ports p and q are
	// adjacent.
	adj [][]bool
}

// Adjacent reports whether the neighbors behind ports p and q are adjacent.
func (b *Ball) Adjacent(p, q int) bool {
	if p == q || p < 0 || q < 0 || p >= len(b.adj) || q >= len(b.adj) {
		return false
	}
	return b.adj[p][q]
}

// DecodeBall parses BallOracle advice for a node of the given degree.
func DecodeBall(s bitstring.String, degree int) (*Ball, error) {
	r := bitstring.NewReader(s)
	labelW64, err := r.ReadDoubled()
	if err != nil {
		return nil, fmt.Errorf("neighborhood: decoding header: %w", err)
	}
	labelW := int(labelW64)
	if labelW <= 0 || labelW > 62 {
		return nil, fmt.Errorf("neighborhood: invalid label width %d", labelW)
	}
	b := &Ball{
		NeighborLabels: make([]int64, degree),
		adj:            make([][]bool, degree),
	}
	for p := 0; p < degree; p++ {
		l, err := r.ReadFixed(labelW)
		if err != nil {
			return nil, fmt.Errorf("neighborhood: decoding neighbor %d: %w", p, err)
		}
		b.NeighborLabels[p] = int64(l)
		b.adj[p] = make([]bool, degree)
	}
	for p := 0; p < degree; p++ {
		for q := p + 1; q < degree; q++ {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("neighborhood: decoding adjacency (%d,%d): %w", p, q, err)
			}
			b.adj[p][q] = bit
			b.adj[q][p] = bit
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("neighborhood: %d trailing bits", r.Remaining())
	}
	return b, nil
}

// edgeOrder is the total order under which triangles are pruned: an edge is
// keyed by its endpoint labels (max, then min); larger keys are dropped
// first. Every triangle has a unique largest edge, and dropping it leaves
// the two smaller edges, so connectivity survives (induction on the order).
type edgeKey struct{ hi, lo int64 }

func keyFor(a, b int64) edgeKey {
	if a < b {
		a, b = b, a
	}
	return edgeKey{hi: a, lo: b}
}

func keyLess(a, b edgeKey) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// KeptPorts applies the relative-neighborhood rule locally: port p (to
// neighbor u) survives unless some port q (to neighbor w, adjacent to u)
// closes a triangle in which both {v,w} and implicit {w,u} precede {v,u}
// in the edge order. Both endpoints of a dropped edge agree on the
// verdict, because the rule depends only on labels and adjacency, which
// both see identically in their balls.
func KeptPorts(selfLabel int64, ball *Ball) []int {
	deg := len(ball.NeighborLabels)
	kept := make([]int, 0, deg)
	for p := 0; p < deg; p++ {
		uLabel := ball.NeighborLabels[p]
		edge := keyFor(selfLabel, uLabel)
		redundant := false
		for q := 0; q < deg; q++ {
			if q == p || !ball.Adjacent(p, q) {
				continue
			}
			wLabel := ball.NeighborLabels[q]
			if keyLess(keyFor(selfLabel, wLabel), edge) && keyLess(keyFor(wLabel, uLabel), edge) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, p)
		}
	}
	return kept
}

// SparseFlood is the wakeup scheme using the ball: flood, but only on the
// locally kept ports. Legal as a wakeup (silent until woken) and complete,
// with messages bounded by twice the sparsified edge count.
type SparseFlood struct{}

// Name implements scheme.Algorithm.
func (SparseFlood) Name() string { return "ball-sparse-flood" }

// NewNode implements scheme.Algorithm.
func (SparseFlood) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &sparseNode{info: info}
	ball, err := DecodeBall(info.Advice, info.Degree)
	if err != nil {
		// Fall back to full flooding rather than stall.
		nd.kept = allPorts(info.Degree)
		return nd
	}
	nd.kept = KeptPorts(info.Label, ball)
	return nd
}

func allPorts(deg int) []int {
	ports := make([]int, deg)
	for p := range ports {
		ports[p] = p
	}
	return ports
}

type sparseNode struct {
	info  scheme.NodeInfo
	kept  []int
	awake bool
}

func (nd *sparseNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.info.Source {
		return out
	}
	nd.awake = true
	return nd.forward(-1, out)
}

func (nd *sparseNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.awake || !msg.Informed {
		return out
	}
	nd.awake = true
	return nd.forward(port, out)
}

func (nd *sparseNode) forward(arrival int, out []scheme.Send) []scheme.Send {
	for _, p := range nd.kept {
		if p != arrival && p >= 0 && p < nd.info.Degree {
			out = scheme.AppendSend(out, p, scheme.KindM, 0)
		}
	}
	return out
}

// SparseEdgeCount reports how many edges survive the rule on g — the
// quantity that bounds the flood's message count.
func SparseEdgeCount(g *graph.Graph) (int, error) {
	advice, err := BallOracle{}.Advise(g, 0)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, e := range g.Edges() {
		ballU, err := DecodeBall(advice[e.U], g.Degree(e.U))
		if err != nil {
			return 0, err
		}
		keptU := KeptPorts(g.Label(e.U), ballU)
		if containsInt(keptU, e.PU) {
			count++
			continue
		}
		// The rule is symmetric, but count an edge as kept if either side
		// keeps it (the flood crosses it in that direction).
		ballV, err := DecodeBall(advice[e.V], g.Degree(e.V))
		if err != nil {
			return 0, err
		}
		keptV := KeptPorts(g.Label(e.V), ballV)
		if containsInt(keptV, e.PV) {
			count++
		}
	}
	return count, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

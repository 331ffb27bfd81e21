package wakeup

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// BudgetedOracle is the Theorem 2.1 oracle truncated to a total bit budget.
// It walks the spanning tree's internal nodes in BFS order and emits the
// full child-port advice (prefixed with a coverage marker bit) for as many
// nodes as the budget allows; the remaining nodes receive the empty string.
// Paired with HybridAlgorithm, covered nodes forward along the tree while
// uncovered nodes fall back to flooding — the empirical counterpart of
// Theorem 2.2's claim that insufficient advice forces extra messages.
type BudgetedOracle struct {
	// BudgetBits is the total advice budget; 0 covers nothing.
	BudgetBits int
	// Tree selects the spanning tree construction; zero value is BFS.
	Tree TreeKind
}

// Name implements oracle.Oracle.
func (o BudgetedOracle) Name() string {
	return fmt.Sprintf("wakeup-budget-%d", o.BudgetBits)
}

// Advise implements oracle.Oracle.
func (o BudgetedOracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	tree, err := Oracle{Tree: o.Tree}.buildTree(g, source)
	if err != nil {
		return nil, err
	}
	width := oracle.FieldWidth(g.N())
	advice := make(sim.Advice, g.N())
	remaining := o.BudgetBits
	// Cover nodes near the source first: a BFS prefix keeps the covered
	// region connected so the tree region saves the most messages.
	order := g.BFS(source).Order
	for _, v := range order {
		kids := tree.Children(v)
		var w bitstring.Writer
		w.WriteBit(true) // coverage marker: even leaves need it, or they flood
		if len(kids) > 0 {
			w.WriteString(encodeChildPorts(kids, width))
		}
		s := w.String()
		if s.Len() > remaining {
			continue
		}
		remaining -= s.Len()
		advice[v] = s
	}
	return advice, nil
}

// HybridAlgorithm consumes BudgetedOracle advice: a covered node (advice
// begins with the marker bit) forwards the source message on its advised
// child ports only; an uncovered node floods on all other ports. Covered
// nodes also flood if their advice fails to decode, preserving completion.
type HybridAlgorithm struct{}

// Name implements scheme.Algorithm.
func (HybridAlgorithm) Name() string { return "wakeup-hybrid" }

// NewNode implements scheme.Algorithm.
func (HybridAlgorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	return &hybridNode{info: info}
}

type hybridNode struct {
	info  scheme.NodeInfo
	awake bool
}

func (nd *hybridNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.info.Source {
		return out
	}
	nd.awake = true
	return nd.forward(-1, out)
}

func (nd *hybridNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.awake || !msg.Informed {
		return out
	}
	nd.awake = true
	return nd.forward(port, out)
}

func (nd *hybridNode) forward(arrival int, out []scheme.Send) []scheme.Send {
	if nd.info.Advice.Empty() {
		return floodSends(out, nd.info.Degree, arrival)
	}
	r := bitstring.NewReader(nd.info.Advice)
	marker, err := r.ReadBit()
	if err != nil || !marker {
		return floodSends(out, nd.info.Degree, arrival)
	}
	rest := nd.info.Advice.Slice(1, nd.info.Advice.Len())
	ports, err := DecodeChildPorts(rest)
	if err != nil {
		return floodSends(out, nd.info.Degree, arrival)
	}
	for _, p := range ports {
		if p >= 0 && p < nd.info.Degree {
			out = scheme.AppendSend(out, p, scheme.KindM, 0)
		}
	}
	return out
}

// FullMapAlgorithm consumes oracle.FullMap advice: every node decodes the
// complete network, recomputes the BFS spanning tree from the source
// locally, finds itself by label, and forwards on its child ports. It uses
// exactly n-1 messages like Algorithm, but needs Θ(n·(m log n)) advice bits
// — the classical "full knowledge" point on the trade-off curve.
type FullMapAlgorithm struct{}

// Name implements scheme.Algorithm.
func (FullMapAlgorithm) Name() string { return "wakeup-fullmap" }

// NewNode implements scheme.Algorithm.
func (FullMapAlgorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	return &fullMapNode{info: info}
}

type fullMapNode struct {
	info  scheme.NodeInfo
	awake bool
}

func (nd *fullMapNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.info.Source {
		return out
	}
	nd.awake = true
	return nd.forward(out)
}

func (nd *fullMapNode) Receive(msg scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	if nd.awake || !msg.Informed {
		return out
	}
	nd.awake = true
	return nd.forward(out)
}

func (nd *fullMapNode) forward(out []scheme.Send) []scheme.Send {
	r := bitstring.NewReader(nd.info.Advice)
	g, err := oracle.DecodeGraphReader(r)
	if err != nil {
		return out
	}
	src64, err := r.ReadFixed(oracle.FieldWidth(g.N()))
	if err != nil {
		return out
	}
	self, ok := g.NodeByLabel(nd.info.Label)
	if !ok {
		return out
	}
	tree, err := spantree.BFS(g, graph.NodeID(src64))
	if err != nil {
		return out
	}
	for _, c := range tree.Children(self) {
		if c.Port >= 0 && c.Port < nd.info.Degree {
			out = scheme.AppendSend(out, c.Port, scheme.KindM, 0)
		}
	}
	return out
}

package mst

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// Oracle writes each node's parent port in the exact MST (rooted at node
// 0) — Θ(n log n) bits. Paired with Silent, the tree is output with zero
// messages.
type Oracle struct{}

// Name implements oracle.Oracle.
func (Oracle) Name() string { return "mst-tree" }

// Advise implements oracle.Oracle. The source argument is ignored: the
// MST does not depend on it.
func (Oracle) Advise(g *graph.Graph, _ graph.NodeID) (sim.Advice, error) {
	edges, err := Exact(g)
	if err != nil {
		return nil, err
	}
	tree, err := spantree.Rooted(g, edges, 0)
	if err != nil {
		return nil, err
	}
	width := oracle.FieldWidth(g.N())
	advice := make(sim.Advice, g.N())
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		var w bitstring.Writer
		w.AppendDoubled(uint64(width))
		if v == 0 {
			w.WriteBit(true)
		} else {
			w.WriteBit(false)
			w.WriteFixed(uint64(tree.ParentPort[v]), width)
		}
		advice[v] = w.String()
	}
	return advice, nil
}

// Silent consumes Oracle advice and outputs the parent port without
// transmitting.
type Silent struct{}

// Name implements scheme.Algorithm.
func (Silent) Name() string { return "mst-oracle" }

// NewNode implements scheme.Algorithm.
func (Silent) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &silentNode{parent: -1}
	r := bitstring.NewReader(info.Advice)
	width64, err := r.ReadDoubled()
	if err != nil {
		return nd
	}
	width := int(width64)
	if width <= 0 || width > 62 {
		return nd
	}
	root, err := r.ReadBit()
	if err != nil {
		return nd
	}
	nd.decided = true
	if !root {
		p, err := r.ReadFixed(width)
		if err != nil {
			nd.decided = false
			return nd
		}
		nd.parent = int(p)
	}
	return nd
}

type silentNode struct {
	decided bool
	parent  int
}

func (silentNode) Init(out []scheme.Send) []scheme.Send                             { return out }
func (silentNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send { return out }

// VerifySilent checks that the retained automata's parent ports spell out
// the exact MST.
func VerifySilent(g *graph.Graph, nodes []scheme.Node) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("mst: %d automata for %d nodes", len(nodes), g.N())
	}
	var edges []graph.Edge
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		nd, ok := nodes[v].(*silentNode)
		if !ok {
			return fmt.Errorf("mst: unexpected automaton %T", nodes[v])
		}
		if !nd.decided {
			return fmt.Errorf("mst: node %d undecided", v)
		}
		if v == 0 {
			if nd.parent != -1 {
				return fmt.Errorf("mst: root claims a parent")
			}
			continue
		}
		if nd.parent < 0 || nd.parent >= g.Degree(v) {
			return fmt.Errorf("mst: node %d parent port %d out of range", v, nd.parent)
		}
		u, q := g.Neighbor(v, nd.parent)
		edges = append(edges, graph.Edge{U: v, V: u, PU: nd.parent, PV: q}.Canonical())
	}
	want, err := Exact(g)
	if err != nil {
		return err
	}
	sortEdges(edges)
	if !SameEdgeSet(edges, want) {
		return fmt.Errorf("mst: output differs from the exact MST")
	}
	return nil
}

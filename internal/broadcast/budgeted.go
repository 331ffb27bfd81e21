package broadcast

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// BudgetedOracle is the Theorem 3.1 oracle truncated to a bit budget — the
// empirical counterpart of Theorem 3.2's claim that o(n) bits of advice
// force a super-linear number of messages. Nodes are visited in BFS order
// from the source; each node's advice (a coverage marker bit followed by
// its assigned tree ports) is emitted while it fits in the budget. Nodes
// left uncovered receive the empty string.
//
// Paired with HybridAlgorithm, covered nodes run Scheme B on their advised
// ports while uncovered nodes must treat every incident edge as unknown
// territory: they hello and forward on all ports, paying the discovery cost
// the oracle would have saved.
type BudgetedOracle struct {
	// BudgetBits is the total advice budget; 0 covers nothing.
	BudgetBits int
	// Codec self-delimits per-port weights; nil selects the doubled code.
	Codec *bitstring.Codec
}

// Name implements oracle.Oracle.
func (o BudgetedOracle) Name() string {
	return fmt.Sprintf("broadcast-budget-%d", o.BudgetBits)
}

// Advise implements oracle.Oracle.
func (o BudgetedOracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	edges, err := spantree.Light(g)
	if err != nil {
		return nil, err
	}
	codec := Oracle{Codec: o.Codec}.codec()
	assigned := make(map[graph.NodeID][]int, g.N())
	for _, e := range edges {
		x, p := AssignedEndpoint(e)
		assigned[x] = append(assigned[x], p)
	}
	advice := make(sim.Advice, g.N())
	remaining := o.BudgetBits
	for _, v := range g.BFS(source).Order {
		var w bitstring.Writer
		w.WriteBit(true) // coverage marker
		for _, p := range assigned[v] {
			codec.Append(&w, uint64(p))
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

// HybridAlgorithm consumes BudgetedOracle advice. Covered nodes (advice
// starts with the marker bit) run Scheme B with K_x from the advice;
// uncovered nodes run Scheme B with K_x = all ports, i.e. they discover
// every incident edge by brute force. Completion is guaranteed for any
// coverage: each tree edge is known to at least one endpoint (its assigned
// endpoint if covered, and any uncovered endpoint knows all its ports), and
// the hello mechanism spreads that knowledge exactly as in the paper's
// induction.
type HybridAlgorithm struct {
	// Codec must match the oracle's; nil selects the doubled code.
	Codec *bitstring.Codec
}

// Name implements scheme.Algorithm.
func (HybridAlgorithm) Name() string { return "scheme-B-hybrid" }

// NewNode implements scheme.Algorithm.
func (a HybridAlgorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	codec := Oracle{Codec: a.Codec}.codec()
	words := bitsetWords(info.Degree)
	backing := make([]uint64, 2*words)
	nd := &node{degree: info.Degree, source: info.Source, known: backing[:words], sentM: backing[words:]}
	if info.Advice.Empty() {
		// Uncovered: all incident edges are candidate tree edges.
		nd.known.setAll(info.Degree)
		return nd
	}
	var r bitstring.Reader
	r.Reset(info.Advice)
	marker, err := r.ReadBit()
	if err != nil || !marker {
		nd.known.setAll(info.Degree)
		return nd
	}
	// The codes are self-delimiting, so reading them straight off the
	// marker's reader matches decoding the post-marker substring.
	for r.Remaining() > 0 {
		p, err := codec.Read(&r)
		if err != nil {
			clear(nd.known)
			nd.known.setAll(info.Degree)
			return nd
		}
		if p < uint64(info.Degree) {
			nd.known.set(int(p))
		}
	}
	return nd
}

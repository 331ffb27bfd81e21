// Package spanner applies the oracle-size lens to the last problem the
// paper's conclusion names: spanner construction. Each node must locally
// select a subset of its incident ports, with zero communication, such
// that the union of selected edges is a connected spanning subgraph. The
// quality of the output is its edge count and its stretch (how much
// distances grow relative to the input graph).
//
// The knowledge ladder here is stark because no messages are allowed at
// all: with zero advice the only safe output keeps every edge (m edges,
// stretch 1); with the Theorem 3.1 broadcast oracle — the same O(n) bits —
// each tree edge's assigned endpoint selects it, and the output is exactly
// the light spanning tree (n-1 edges). The oracle pays bits to buy
// sparsity; the stretch column quantifies what sparsity costs.
package spanner

import (
	"errors"
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/broadcast"
	"oraclesize/internal/graph"
	"oraclesize/internal/sim"
)

// Selector is a zero-communication spanner rule: given its advice and
// degree, a node returns the set of ports it keeps. An edge belongs to the
// output if either endpoint keeps it.
type Selector interface {
	Name() string
	Keep(advice bitstring.String, degree int) ([]int, error)
}

// Output is the constructed subgraph plus its quality measures.
type Output struct {
	// Edges lists the kept edges in canonical orientation.
	Edges []graph.Edge
	// Connected reports whether the output spans the graph.
	Connected bool
	// Stretch is the worst multiplicative growth of pairwise distance
	// (computed exactly; 1 means distances are preserved). It is 0 when
	// the output is disconnected.
	Stretch float64
}

// Build runs the selector at every node and assembles the output subgraph.
func Build(g *graph.Graph, advice sim.Advice, sel Selector) (*Output, error) {
	keep := make(map[graph.Edge]bool)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		ports, err := sel.Keep(advice.Of(v), g.Degree(v))
		if err != nil {
			return nil, fmt.Errorf("spanner: node %d: %w", v, err)
		}
		for _, p := range ports {
			if p < 0 || p >= g.Degree(v) {
				return nil, fmt.Errorf("spanner: node %d selected invalid port %d", v, p)
			}
			u, q := g.Neighbor(v, p)
			keep[graph.Edge{U: v, V: u, PU: p, PV: q}.Canonical()] = true
		}
	}
	out := &Output{Edges: make([]graph.Edge, 0, len(keep))}
	for e := range keep {
		out.Edges = append(out.Edges, e)
	}
	sub, err := subgraph(g, out.Edges)
	if err != nil {
		return nil, err
	}
	out.Connected = sub.Connected()
	if out.Connected {
		out.Stretch = stretch(g, sub)
	}
	return out, nil
}

// subgraph materializes the kept edges over g's nodes (ports renumbered).
func subgraph(g *graph.Graph, edges []graph.Edge) (*graph.Graph, error) {
	b := graph.NewBuilder(g.N())
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		b.SetLabel(v, g.Label(v))
	}
	for _, e := range edges {
		b.AddEdgeAuto(e.U, e.V)
	}
	return b.Graph()
}

// stretch computes max over pairs of dist_sub(u,v)/dist_g(u,v) exactly via
// all-pairs BFS; intended for experiment sizes.
func stretch(g, sub *graph.Graph) float64 {
	worst := 1.0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		dg := g.BFS(v).Dist
		ds := sub.BFS(v).Dist
		for u := range dg {
			if dg[u] <= 0 {
				continue
			}
			r := float64(ds[u]) / float64(dg[u])
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

// KeepAll is the zero-advice selector: without knowledge, dropping any
// edge risks disconnection, so every port is kept.
type KeepAll struct{}

// Name implements Selector.
func (KeepAll) Name() string { return "keep-all" }

// Keep implements Selector.
func (KeepAll) Keep(_ bitstring.String, degree int) ([]int, error) {
	ports := make([]int, degree)
	for p := range ports {
		ports[p] = p
	}
	return ports, nil
}

// LightTree consumes the Theorem 3.1 broadcast advice: a node keeps
// exactly its oracle-assigned ports, so the output is the light spanning
// tree T0 — n-1 edges from O(n) advice bits, zero messages.
type LightTree struct {
	// Codec must match the oracle's; nil selects the doubled code.
	Codec *bitstring.Codec
}

// Name implements Selector.
func (LightTree) Name() string { return "light-tree" }

// Keep implements Selector.
func (s LightTree) Keep(advice bitstring.String, degree int) ([]int, error) {
	codec := broadcast.Oracle{Codec: s.Codec}.ResolvedCodec()
	ports, err := broadcast.DecodePorts(advice, codec)
	if err != nil {
		return nil, err
	}
	kept := ports[:0]
	for _, p := range ports {
		if p >= 0 && p < degree {
			kept = append(kept, p)
		}
	}
	return kept, nil
}

// Advice builds the O(n)-bit spanner advice (it is the broadcast oracle's
// assignment verbatim).
func Advice(g *graph.Graph) (sim.Advice, error) {
	if g.N() == 0 {
		return nil, errors.New("spanner: empty graph")
	}
	return broadcast.Oracle{}.Advise(g, 0)
}

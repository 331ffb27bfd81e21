// Package oracle defines the paper's central object: an oracle is a function
// that looks at the entire labeled network and assigns each node a binary
// string; the oracle's size on a network is the total number of assigned
// bits. The minimum oracle size for which a task becomes solvable with a
// given efficiency is the paper's difficulty measure.
//
// This package holds the Oracle interface, size accounting, a bit-exact
// graph codec (used by the full-map baseline), and the trivial oracles that
// bracket the paper's constructions from below (empty) and above (full map).
// The constructions themselves live in the wakeup and broadcast packages.
package oracle

import (
	"fmt"
	"math/bits"
	"sort"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/sim"
)

// Oracle assigns advice strings to the nodes of a network. Implementations
// see the whole graph and the source, like the paper's oracle O with
// O(G) = f.
type Oracle interface {
	// Name identifies the oracle in experiment tables.
	Name() string
	// Advise computes the advice assignment for g with the given source.
	Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error)
}

// SizeStats summarizes an advice assignment.
type SizeStats struct {
	// TotalBits is the oracle size (the paper's measure).
	TotalBits int
	// MaxNodeBits is the largest single advice string.
	MaxNodeBits int
	// NonEmptyNodes counts nodes with at least one advice bit.
	NonEmptyNodes int
}

// Stats computes size statistics for an advice assignment.
func Stats(a sim.Advice) SizeStats {
	var s SizeStats
	for _, str := range a {
		s.TotalBits += str.Len()
		if str.Len() > s.MaxNodeBits {
			s.MaxNodeBits = str.Len()
		}
		if str.Len() > 0 {
			s.NonEmptyNodes++
		}
	}
	return s
}

// Empty is the zero-knowledge oracle: every node gets the empty string.
// With it, broadcast degenerates to flooding and wakeup to flooding from
// the source.
type Empty struct{}

// Name implements Oracle.
func (Empty) Name() string { return "empty" }

// Advise implements Oracle. It returns nil, which sim.Advice.Of reads as
// the empty string at every node, so it allocates nothing.
func (Empty) Advise(*graph.Graph, graph.NodeID) (sim.Advice, error) {
	return nil, nil
}

// FullMap is the classic "full topology knowledge" assumption expressed as
// an oracle: every node receives a complete encoding of the labeled
// port-numbered graph plus the source's index. Its size is Θ(n·m·log n)
// bits — the baseline the paper's O(n log n) and O(n) oracles undercut.
type FullMap struct{}

// Name implements Oracle.
func (FullMap) Name() string { return "full-map" }

// Advise implements Oracle.
func (FullMap) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	enc := EncodeGraph(g)
	var w bitstring.Writer
	w.WriteString(enc)
	w.WriteFixed(uint64(source), FieldWidth(g.N()))
	per := w.String()
	advice := make(sim.Advice, g.N())
	for v := 0; v < g.N(); v++ {
		advice[graph.NodeID(v)] = per
	}
	return advice, nil
}

// FieldWidth returns the number of bits needed to index n items (at least 1).
func FieldWidth(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// EncodeGraph serializes a labeled port-numbered graph into a bit string:
// gamma-coded n, the node labels in ID order, then each node's port table
// (neighbor index and reverse port in fixed-width fields). DecodeGraph
// inverts it exactly.
func EncodeGraph(g *graph.Graph) bitstring.String {
	n := g.N()
	var w bitstring.Writer
	w.AppendGamma0(uint64(n))
	maxDeg := g.MaxDegree()
	w.AppendGamma0(uint64(maxDeg))
	for v := 0; v < n; v++ {
		w.AppendGamma0(uint64(g.Label(graph.NodeID(v))))
	}
	nodeW := FieldWidth(n)
	portW := FieldWidth(maxInt(maxDeg, 1))
	for v := 0; v < n; v++ {
		w.AppendGamma0(uint64(g.Degree(graph.NodeID(v))))
		for p := 0; p < g.Degree(graph.NodeID(v)); p++ {
			u, q := g.Neighbor(graph.NodeID(v), p)
			w.WriteFixed(uint64(u), nodeW)
			w.WriteFixed(uint64(q), portW)
		}
	}
	return w.String()
}

// DecodeGraph parses a string produced by EncodeGraph.
func DecodeGraph(s bitstring.String) (*graph.Graph, error) {
	return DecodeGraphReader(bitstring.NewReader(s))
}

// DecodeGraphReader parses one EncodeGraph record from r, leaving the
// reader positioned after it (the full-map advice appends the source index
// behind the graph).
func DecodeGraphReader(r *bitstring.Reader) (*graph.Graph, error) {
	n64, err := r.ReadGamma0()
	if err != nil {
		return nil, fmt.Errorf("oracle: decoding node count: %w", err)
	}
	maxDeg64, err := r.ReadGamma0()
	if err != nil {
		return nil, fmt.Errorf("oracle: decoding max degree: %w", err)
	}
	// Sanity bounds: reject adversarial headers before allocating. The
	// codec is for advice strings, not multi-gigabyte networks.
	const maxNodes = 1 << 24
	if n64 == 0 || n64 > maxNodes {
		return nil, fmt.Errorf("oracle: implausible node count %d", n64)
	}
	if maxDeg64 >= n64 {
		return nil, fmt.Errorf("oracle: max degree %d >= n %d", maxDeg64, n64)
	}
	n := int(n64)
	maxDeg := int(maxDeg64)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		label, err := r.ReadGamma0()
		if err != nil {
			return nil, fmt.Errorf("oracle: decoding label of node %d: %w", v, err)
		}
		b.SetLabel(graph.NodeID(v), int64(label))
	}
	nodeW := FieldWidth(n)
	portW := FieldWidth(maxInt(maxDeg, 1))
	type half struct {
		u, v graph.NodeID
		p, q int
	}
	var halves []half
	for v := 0; v < n; v++ {
		deg, err := r.ReadGamma0()
		if err != nil {
			return nil, fmt.Errorf("oracle: decoding degree of node %d: %w", v, err)
		}
		if deg > maxDeg64 {
			return nil, fmt.Errorf("oracle: node %d degree %d exceeds declared max %d", v, deg, maxDeg64)
		}
		for p := 0; p < int(deg); p++ {
			u, err := r.ReadFixed(nodeW)
			if err != nil {
				return nil, fmt.Errorf("oracle: decoding port %d of node %d: %w", p, v, err)
			}
			q, err := r.ReadFixed(portW)
			if err != nil {
				return nil, fmt.Errorf("oracle: decoding reverse port %d of node %d: %w", p, v, err)
			}
			if graph.NodeID(v) < graph.NodeID(u) {
				halves = append(halves, half{u: graph.NodeID(v), v: graph.NodeID(u), p: p, q: int(q)})
			}
		}
	}
	// Deterministic edge insertion order.
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].u != halves[j].u {
			return halves[i].u < halves[j].u
		}
		return halves[i].v < halves[j].v
	})
	for _, h := range halves {
		b.AddEdge(h.u, h.p, h.v, h.q)
	}
	return b.Graph()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

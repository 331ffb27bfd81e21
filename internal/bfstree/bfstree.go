// Package bfstree applies the oracle-size lens to a task the paper's §1.2
// names directly: the construction of a BFS tree. Every node must output
// its BFS distance from the source and (except the source) a parent port
// pointing to a neighbor at distance one less.
//
// The knowledge ladder:
//
//   - zero advice: a distance-stamped flood. Under synchronous delivery
//     the first arrival carries the true BFS distance and the protocol
//     costs at most 2m messages; under adversarial asynchrony nodes adopt
//     provisional parents and must re-flood on every improvement, driving
//     the message count up — a measurable price of asynchrony;
//   - Θ(n log n) advice: the oracle writes each node's parent port and
//     distance; nodes output them with zero messages.
//
// Verification is exact: distances must equal true BFS distances and every
// parent edge must descend one level.
package bfstree

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// Outcome is a node's final output.
type Outcome struct {
	// Decided reports whether the node produced an output.
	Decided bool
	// Dist is the claimed BFS distance from the source.
	Dist int
	// ParentPort is the claimed parent port; -1 at the source.
	ParentPort int
}

// Reporter is implemented by bfstree automata.
type Reporter interface {
	Outcome() Outcome
}

// Verify checks retained automata against the true BFS structure of g.
func Verify(g *graph.Graph, source graph.NodeID, nodes []scheme.Node) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("bfstree: %d automata for %d nodes (RetainNodes unset?)", len(nodes), g.N())
	}
	truth := g.BFS(source)
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		rep, ok := nodes[v].(Reporter)
		if !ok {
			return fmt.Errorf("bfstree: node %d (%T) is not a Reporter", v, nodes[v])
		}
		out := rep.Outcome()
		if !out.Decided {
			return fmt.Errorf("bfstree: node %d undecided", v)
		}
		if out.Dist != truth.Dist[v] {
			return fmt.Errorf("bfstree: node %d claims distance %d, true %d", v, out.Dist, truth.Dist[v])
		}
		if v == source {
			if out.ParentPort != -1 {
				return fmt.Errorf("bfstree: source claims parent port %d", out.ParentPort)
			}
			continue
		}
		if out.ParentPort < 0 || out.ParentPort >= g.Degree(v) {
			return fmt.Errorf("bfstree: node %d parent port %d out of range", v, out.ParentPort)
		}
		u, _ := g.Neighbor(v, out.ParentPort)
		if truth.Dist[u] != out.Dist-1 {
			return fmt.Errorf("bfstree: node %d (dist %d) parent %d has dist %d", v, out.Dist, u, truth.Dist[u])
		}
	}
	return nil
}

// Flood is the zero-advice protocol: the source announces distance 0;
// every node adopts the smallest distance it hears (plus one) and
// re-announces on improvement. Under FIFO delivery each node improves
// once; adversarial orders force repeated corrections.
type Flood struct{}

// Name implements scheme.Algorithm.
func (Flood) Name() string { return "bfs-flood" }

// NewNode implements scheme.Algorithm.
func (Flood) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &floodNode{info: info, dist: -1, parent: -1}
	if info.Source {
		nd.dist = 0
	}
	return nd
}

type floodNode struct {
	info   scheme.NodeInfo
	dist   int // -1 until first adoption
	parent int
}

// Outcome implements Reporter.
func (nd *floodNode) Outcome() Outcome {
	return Outcome{Decided: nd.dist >= 0, Dist: nd.dist, ParentPort: nd.parent}
}

func (nd *floodNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.info.Source {
		return out
	}
	return announce(out, nd.info.Degree, -1, 0)
}

func (nd *floodNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	heard := int(msg.Payload)
	if nd.dist >= 0 && heard+1 >= nd.dist {
		return out
	}
	nd.dist = heard + 1
	nd.parent = port
	return announce(out, nd.info.Degree, port, nd.dist)
}

// announce appends dist on every port but except.
func announce(out []scheme.Send, degree, except, dist int) []scheme.Send {
	for p := 0; p < degree; p++ {
		if p != except {
			out = scheme.AppendSend(out, p, scheme.KindProbe, uint64(dist))
		}
	}
	return out
}

// Oracle writes each node's true parent port and BFS distance — Θ(n log n)
// bits; paired with Silent, the task is solved with zero messages.
type Oracle struct{}

// Name implements oracle.Oracle.
func (Oracle) Name() string { return "bfs-tree" }

// Advise implements oracle.Oracle.
func (Oracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	truth := g.BFS(source)
	for v, d := range truth.Dist {
		if d < 0 {
			return nil, fmt.Errorf("bfstree: node %d unreachable from source", v)
		}
	}
	width := oracle.FieldWidth(g.N())
	advice := make(sim.Advice, g.N())
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		var w bitstring.Writer
		w.AppendDoubled(uint64(width))
		w.WriteFixed(uint64(truth.Dist[v]), width)
		if v != source {
			w.WriteFixed(uint64(truth.ParentPort[v]), width)
		}
		advice[v] = w.String()
	}
	return advice, nil
}

// DecodeAdvice parses one node's Oracle string. The source's record has no
// parent field, which the decoder detects from the remaining length.
func DecodeAdvice(s bitstring.String) (dist, parentPort int, err error) {
	r := bitstring.NewReader(s)
	width64, err := r.ReadDoubled()
	if err != nil {
		return 0, 0, fmt.Errorf("bfstree: decoding header: %w", err)
	}
	width := int(width64)
	if width <= 0 || width > 62 {
		return 0, 0, fmt.Errorf("bfstree: invalid width %d", width)
	}
	d, err := r.ReadFixed(width)
	if err != nil {
		return 0, 0, fmt.Errorf("bfstree: decoding distance: %w", err)
	}
	switch r.Remaining() {
	case 0:
		return int(d), -1, nil
	case width:
		p, err := r.ReadFixed(width)
		if err != nil {
			return 0, 0, fmt.Errorf("bfstree: decoding parent: %w", err)
		}
		return int(d), int(p), nil
	default:
		return 0, 0, fmt.Errorf("bfstree: %d trailing bits", r.Remaining())
	}
}

// Silent consumes Oracle advice and transmits nothing.
type Silent struct{}

// Name implements scheme.Algorithm.
func (Silent) Name() string { return "bfs-oracle" }

// NewNode implements scheme.Algorithm.
func (Silent) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &silentNode{}
	d, p, err := DecodeAdvice(info.Advice)
	if err != nil {
		return nd
	}
	nd.decided = true
	nd.dist = d
	nd.parent = p
	return nd
}

type silentNode struct {
	decided bool
	dist    int
	parent  int
}

// Outcome implements Reporter.
func (nd *silentNode) Outcome() Outcome {
	return Outcome{Decided: nd.decided, Dist: nd.dist, ParentPort: nd.parent}
}

func (silentNode) Init(out []scheme.Send) []scheme.Send                             { return out }
func (silentNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send { return out }

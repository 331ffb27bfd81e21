// Package election applies the oracle-size lens to leader election, the
// first network problem the paper's introduction names. Every node must
// decide whether it is the leader, with exactly one node electing itself,
// and all nodes must learn the leader's label.
//
// Three points on the knowledge scale bracket the task:
//
//   - zero advice: the classical max-label flooding election — every node
//     starts a flood of its label, forwarding only improvements; message
//     complexity up to O(n·m);
//   - one marked bit (oracle size 1): the oracle anoints a leader, which
//     merely floods an announcement — O(m) messages;
//   - a tree oracle (Θ(n log n) bits): the anointed leader announces along
//     a spanning tree — exactly n-1 messages.
//
// The task differs from broadcast only in who knows what at the start, and
// the oracle-size ladder quantifies exactly how much each additional bit of
// knowledge buys, in the spirit of the paper's conclusion.
package election

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// Outcome is a node's final decision, exposed via sim.Options.RetainNodes.
type Outcome struct {
	// Decided reports whether the node reached a decision.
	Decided bool
	// Leader is the elected node's label.
	Leader int64
	// IsLeader marks the single winner.
	IsLeader bool
}

// Decider is implemented by election automata so runs can be audited.
type Decider interface {
	Outcome() Outcome
}

// Verify checks an election run: every retained node decided, they agree
// on the leader's label, and exactly one node claims leadership.
func Verify(nodes []scheme.Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("election: no nodes to verify (RetainNodes unset?)")
	}
	leaders := 0
	var label int64
	for i, n := range nodes {
		d, ok := n.(Decider)
		if !ok {
			return fmt.Errorf("election: node %d (%T) is not a Decider", i, n)
		}
		out := d.Outcome()
		if !out.Decided {
			return fmt.Errorf("election: node %d undecided", i)
		}
		if i == 0 {
			label = out.Leader
		} else if out.Leader != label {
			return fmt.Errorf("election: node %d elected %d, node 0 elected %d", i, out.Leader, label)
		}
		if out.IsLeader {
			leaders++
		}
	}
	if leaders != 1 {
		return fmt.Errorf("election: %d self-elected leaders", leaders)
	}
	return nil
}

// MaxLabelFlood is the zero-advice election: every node floods its label;
// nodes forward only labels larger than any seen; when the floods quiesce,
// everyone has seen the global maximum. (Termination detection is by
// network quiescence, which the simulation engine provides; a real network
// would run a termination-detection layer on top.)
type MaxLabelFlood struct{}

// Name implements scheme.Algorithm.
func (MaxLabelFlood) Name() string { return "election-maxflood" }

// NewNode implements scheme.Algorithm.
func (MaxLabelFlood) NewNode(info scheme.NodeInfo) scheme.Node {
	return &maxFloodNode{info: info, best: info.Label}
}

type maxFloodNode struct {
	info scheme.NodeInfo
	best int64
}

// Outcome implements Decider.
func (nd *maxFloodNode) Outcome() Outcome {
	return Outcome{Decided: true, Leader: nd.best, IsLeader: nd.best == nd.info.Label}
}

func (nd *maxFloodNode) Init(out []scheme.Send) []scheme.Send {
	return sendLabelOnAll(out, nd.info.Degree, -1, nd.best)
}

func (nd *maxFloodNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	candidate := int64(msg.Payload)
	if candidate <= nd.best {
		return out
	}
	nd.best = candidate
	return sendLabelOnAll(out, nd.info.Degree, port, candidate)
}

// sendLabelOnAll appends label on every port but except.
func sendLabelOnAll(out []scheme.Send, degree, except int, label int64) []scheme.Send {
	for p := 0; p < degree; p++ {
		if p != except {
			out = scheme.AppendSend(out, p, scheme.KindProbe, uint64(label))
		}
	}
	return out
}

// MarkOracle is the one-bit oracle: the designated node (the engine's
// source argument) gets the string "1"; everyone else gets nothing.
type MarkOracle struct{}

// Name implements oracle.Oracle.
func (MarkOracle) Name() string { return "election-mark" }

// Advise implements oracle.Oracle.
func (MarkOracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	advice := make(sim.Advice, g.N())
	advice[source] = bitstring.FromBits(1)
	return advice, nil
}

// MarkedFlood elects the oracle-marked node, which floods its label as the
// announcement: O(m) messages, oracle size 1 bit.
type MarkedFlood struct{}

// Name implements scheme.Algorithm.
func (MarkedFlood) Name() string { return "election-markedflood" }

// NewNode implements scheme.Algorithm.
func (MarkedFlood) NewNode(info scheme.NodeInfo) scheme.Node {
	return &markedFloodNode{info: info, marked: !info.Advice.Empty()}
}

type markedFloodNode struct {
	info    scheme.NodeInfo
	marked  bool
	decided bool
	leader  int64
}

// Outcome implements Decider.
func (nd *markedFloodNode) Outcome() Outcome {
	return Outcome{Decided: nd.decided, Leader: nd.leader, IsLeader: nd.marked}
}

func (nd *markedFloodNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.marked {
		return out
	}
	nd.decided = true
	nd.leader = nd.info.Label
	return sendLabelOnAll(out, nd.info.Degree, -1, nd.info.Label)
}

func (nd *markedFloodNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.decided {
		return out
	}
	nd.decided = true
	nd.leader = int64(msg.Payload)
	return sendLabelOnAll(out, nd.info.Degree, port, nd.leader)
}

// TreeOracle combines the leader mark with the Theorem 2.1 tree advice so
// the announcement travels each tree edge exactly once: n-1 messages,
// Θ(n log n) oracle bits (one marker bit per node plus the tree advice).
type TreeOracle struct{}

// TreeBound is the MarkedTree scheme's cost on n nodes: the announcement
// crosses each tree edge once, n-1 messages, and TreeOracle advice is the
// Theorem 2.1 advice of wakeup.Bound plus one marker bit per node.
func TreeBound(n int) (messages, adviceBits int) {
	messages, treeBits := wakeup.Bound(n)
	return messages, n + treeBits
}

// Name implements oracle.Oracle.
func (TreeOracle) Name() string { return "election-tree" }

// Advise implements oracle.Oracle: the wakeup advice with a leading marker
// bit at the designated leader and a leading zero bit elsewhere.
func (TreeOracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	base, err := wakeup.Oracle{}.Advise(g, source)
	if err != nil {
		return nil, err
	}
	// One marker bit per node on top of the tree advice.
	n := g.N()
	arena := bitstring.NewArena(make(sim.Advice, 0, n), n+base.SizeBits())
	for v := graph.NodeID(0); int(v) < n; v++ {
		w := arena.Begin()
		w.WriteBit(v == source)
		w.WriteString(base[v])
	}
	return arena.Strings(), nil
}

// MarkedTree is the tree-advised election scheme.
type MarkedTree struct{}

// Name implements scheme.Algorithm.
func (MarkedTree) Name() string { return "election-markedtree" }

// NewNode implements scheme.Algorithm.
func (MarkedTree) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &markedTreeNode{info: info}
	if info.Advice.Empty() {
		return nd // no advice at all: isolated leaf-like node
	}
	nd.marked = info.Advice.Bit(0)
	rest := info.Advice.Slice(1, info.Advice.Len())
	kids, err := wakeup.DecodeChildPorts(rest)
	if err != nil {
		return nd
	}
	nd.kids = kids
	return nd
}

type markedTreeNode struct {
	info    scheme.NodeInfo
	marked  bool
	kids    []int
	decided bool
	leader  int64
}

// Outcome implements Decider.
func (nd *markedTreeNode) Outcome() Outcome {
	return Outcome{Decided: nd.decided, Leader: nd.leader, IsLeader: nd.marked}
}

func (nd *markedTreeNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.marked {
		return out
	}
	nd.decided = true
	nd.leader = nd.info.Label
	return nd.announce(out, nd.info.Label)
}

func (nd *markedTreeNode) Receive(msg scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	if nd.decided {
		return out
	}
	nd.decided = true
	nd.leader = int64(msg.Payload)
	return nd.announce(out, nd.leader)
}

func (nd *markedTreeNode) announce(out []scheme.Send, label int64) []scheme.Send {
	for _, p := range nd.kids {
		if p >= 0 && p < nd.info.Degree {
			out = scheme.AppendSend(out, p, scheme.KindProbe, uint64(label))
		}
	}
	return out
}

// Package gossip extends the paper's program to the third communication
// primitive its introduction names: gossip, the all-to-all exchange in
// which every node starts with a private value and must learn everyone's.
// The paper's conclusion conjectures that oracles can measure the
// difficulty of "a broader range of distributed network problems"; this
// package instantiates the conjecture for gossip with a concrete oracle
// and scheme.
//
// The oracle roots a spanning tree anywhere and tells every node its
// parent port and child ports — a Θ(n log n)-bit oracle, like wakeup's,
// plus one extra port per node. The scheme is the classical
// convergecast/divergecast pair: leaves send their value up; internal
// nodes merge and forward; the root, once complete, floods the full set
// down. Exactly 2(n-1) messages.
//
// Unlike the paper's dissemination tasks, gossip messages carry value sets
// and are therefore not bounded-size; the paper's bounded-message caveat
// applies to broadcast and wakeup only.
package gossip

import (
	"fmt"
	"slices"
	"sort"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// Oracle is the gossip oracle: parent and child ports of a spanning tree.
type Oracle struct {
	// Root picks the convergecast root; any node works.
	Root graph.NodeID
}

// Bound is the gossip scheme's cost on n nodes, which every run meets
// exactly: Algorithm sends 2(n-1) messages, one up and one down each tree
// edge, and Oracle advice is n·(2·#2(w)+3) + 2(n-1)·w bits, where w =
// oracle.FieldWidth(n): every node holds a header β(w) and a root-marker
// bit, and each tree edge's port is written at both of its endpoints.
func Bound(n int) (messages, adviceBits int) {
	w := oracle.FieldWidth(n)
	return 2 * (n - 1), n*(2*bitstring.Num2(uint64(w))+3) + 2*(n-1)*w
}

// Name implements oracle.Oracle.
func (o Oracle) Name() string { return "gossip-tree" }

// Advise implements oracle.Oracle. The source argument is ignored: gossip
// is symmetric.
func (o Oracle) Advise(g *graph.Graph, _ graph.NodeID) (sim.Advice, error) {
	tree, err := spantree.BFS(g, o.Root)
	if err != nil {
		return nil, err
	}
	n, width := g.N(), oracle.FieldWidth(g.N())
	// n headers and root bits, and 2(n-1) fields.
	var arena bitstring.Arena
	arena.Grow(n, n*(bitstring.DoubledLen(uint64(width))+1)+2*n*width)
	for v := graph.NodeID(0); int(v) < n; v++ {
		w := arena.Begin()
		w.AppendDoubled(uint64(width))
		if v == o.Root {
			w.WriteBit(true) // root marker
		} else {
			w.WriteBit(false)
			w.WriteFixed(uint64(tree.ParentPort[v]), width)
		}
		for _, c := range tree.Children(v) {
			w.WriteFixed(uint64(c.Port), width)
		}
	}
	return arena.Strings(make(sim.Advice, 0, n)), nil
}

// Role is a node's decoded advice.
type Role struct {
	// IsRoot marks the convergecast root.
	IsRoot bool
	// ParentPort is the port toward the parent; -1 at the root.
	ParentPort int
	// ChildPorts lists the ports toward children.
	ChildPorts []int
}

// DecodeRole parses a gossip advice string.
func DecodeRole(s bitstring.String) (Role, error) {
	r := bitstring.NewReader(s)
	width64, err := r.ReadDoubled()
	if err != nil {
		return Role{}, fmt.Errorf("gossip: decoding header: %w", err)
	}
	width := int(width64)
	if width <= 0 || width > 62 {
		return Role{}, fmt.Errorf("gossip: invalid field width %d", width)
	}
	isRoot, err := r.ReadBit()
	if err != nil {
		return Role{}, fmt.Errorf("gossip: decoding root marker: %w", err)
	}
	role := Role{IsRoot: isRoot, ParentPort: -1}
	if !isRoot {
		p, err := r.ReadFixed(width)
		if err != nil {
			return Role{}, fmt.Errorf("gossip: decoding parent port: %w", err)
		}
		role.ParentPort = int(p)
	}
	if r.Remaining()%width != 0 {
		return Role{}, fmt.Errorf("gossip: %d trailing bits not divisible by width %d", r.Remaining(), width)
	}
	for r.Remaining() > 0 {
		p, err := r.ReadFixed(width)
		if err != nil {
			return Role{}, fmt.Errorf("gossip: decoding child port: %w", err)
		}
		role.ChildPorts = append(role.ChildPorts, int(p))
	}
	return role, nil
}

// Algorithm is the convergecast/divergecast gossip scheme.
type Algorithm struct{}

// Name implements scheme.Algorithm.
func (Algorithm) Name() string { return "gossip-tree" }

// NewNode implements scheme.Algorithm.
func (Algorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &node{info: info}
	role, err := DecodeRole(info.Advice)
	if err != nil {
		nd.broken = true
		return nd
	}
	nd.role = role
	nd.collected = []int64{info.Label}
	return nd
}

// node implements the gossip automaton. Its value is its label (the
// natural distinct input each node holds).
type node struct {
	info      scheme.NodeInfo
	role      Role
	broken    bool
	collected []int64 // own value + values received from children
	pending   int     // children not yet heard from
	done      bool    // full set known
	full      []int64
}

// Values reports the final learned set; the sim engine exposes automata
// via Options.RetainNodes so tests and experiments can verify completion.
func (nd *node) Values() []int64 {
	out := append([]int64(nil), nd.full...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (nd *node) Init(out []scheme.Send) []scheme.Send {
	if nd.broken {
		return out
	}
	nd.pending = len(nd.role.ChildPorts)
	if nd.pending > 0 {
		return out // wait for the subtree first
	}
	// A leaf starts the convergecast; a childless root is the whole tree.
	if nd.role.IsRoot {
		nd.done = true
		nd.full = append([]int64(nil), nd.collected...)
		return out
	}
	return append(out, scheme.Send{
		Port: nd.role.ParentPort,
		Msg:  scheme.Message{Kind: scheme.KindUp, Values: nd.collected},
	})
}

func (nd *node) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.broken {
		return out
	}
	switch msg.Kind {
	case scheme.KindUp:
		return nd.receiveUp(msg, port, out)
	case scheme.KindDown:
		return nd.receiveDown(msg, out)
	default:
		return out
	}
}

func (nd *node) receiveUp(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if !nd.isChildPort(port) || nd.pending == 0 {
		return out // not a tree child: ignore (robustness)
	}
	nd.collected = append(nd.collected, msg.Values...)
	nd.pending--
	if nd.pending > 0 {
		return out
	}
	if !nd.role.IsRoot {
		return append(out, scheme.Send{
			Port: nd.role.ParentPort,
			Msg:  scheme.Message{Kind: scheme.KindUp, Values: nd.collected},
		})
	}
	// Root: the set is complete; flood it down.
	nd.done = true
	nd.full = append([]int64(nil), nd.collected...)
	return nd.floodDown(out)
}

func (nd *node) receiveDown(msg scheme.Message, out []scheme.Send) []scheme.Send {
	if nd.done {
		return out
	}
	nd.done = true
	nd.full = append([]int64(nil), msg.Values...)
	return nd.floodDown(out)
}

func (nd *node) floodDown(out []scheme.Send) []scheme.Send {
	for _, p := range nd.role.ChildPorts {
		if p >= 0 && p < nd.info.Degree {
			out = append(out, scheme.Send{
				Port: p,
				Msg:  scheme.Message{Kind: scheme.KindDown, Values: nd.full},
			})
		}
	}
	return out
}

func (nd *node) isChildPort(port int) bool {
	for _, p := range nd.role.ChildPorts {
		if p == port {
			return true
		}
	}
	return false
}

// Verify is gossip's completion check over the retained automata of a
// run (sim.Options.RetainNodes): every node must end up knowing all n
// labels, each node's own label included.
func Verify(nodes []scheme.Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("gossip: no nodes to verify (RetainNodes unset?)")
	}
	want := make([]int64, len(nodes))
	for v, n := range nodes {
		gn, ok := n.(*node)
		if !ok {
			return fmt.Errorf("gossip: node %d (%T) is not a gossip automaton", v, n)
		}
		want[v] = gn.info.Label
	}
	slices.Sort(want)
	// Nodes copy the root's set in the order it sends it, so a node whose
	// values repeat the last verified node's sequence holds the same set
	// and costs one comparison; only a new sequence is sorted.
	var verified []int64
	got := make([]int64, 0, len(want))
	for v, n := range nodes {
		full := n.(*node).full
		if verified != nil && slices.Equal(full, verified) {
			continue
		}
		got = append(got[:0], full...)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("gossip: node %d learned %d of %d values", v, len(got), len(want))
		}
		verified = full
	}
	return nil
}

// Package wakeup implements the paper's Theorem 2.1: an oracle of size
// n·ceil(log n) + O(n·log log n) bits that lets an anonymous, asynchronous
// network perform wakeup with exactly n-1 messages.
//
// The oracle fixes a spanning tree T of the network rooted at the source and
// tells every internal node which of its ports lead to its children in T.
// The advice string at a node v with c(v) children is the paper's
// self-delimiting header β — the binary representation of the field width,
// every bit doubled, terminated by "10" — followed by the c(v) child port
// numbers in fixed-width fields. A woken node simply forwards the source
// message on all its child ports, so each tree edge carries exactly one
// message.
//
// The package also provides a budget-truncated variant of the oracle (nodes
// beyond the bit budget receive no advice and must flood), the full-map
// oracle consumer, and the zero-advice flooding baseline, which together
// populate the knowledge/communication trade-off experiments.
package wakeup

import (
	"fmt"
	"slices"
	"sync"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
)

// TreeKind selects the spanning tree used by the oracle. The paper uses
// "any spanning tree"; exposing the choice lets experiments compare.
type TreeKind uint8

// Spanning tree choices for Oracle.
const (
	// TreeBFS uses a breadth-first tree (default).
	TreeBFS TreeKind = iota
	// TreeDFS uses a depth-first tree.
	TreeDFS
	// TreeLight uses the broadcast construction's light tree (Claim 3.1),
	// which shrinks the fixed-width fields on many graphs.
	TreeLight
)

// Oracle is the Theorem 2.1 wakeup oracle.
type Oracle struct {
	// Tree selects the spanning tree construction; zero value is BFS.
	Tree TreeKind
}

// Bound is Theorem 2.1 as this encoding meets it on n nodes, for every
// tree kind: Algorithm sends exactly n-1 messages, and Oracle advice costs
// at most (n-1)·(w + 2·#2(w) + 2) bits, where w = oracle.FieldWidth(n).
// Each of the n-1 tree edges costs one w-bit port field, and each of the
// at most n-1 internal nodes one (2·#2(w)+2)-bit header β(w): that is
// n·⌈log n⌉ + O(n log log n). A path rooted at an end meets it exactly.
func Bound(n int) (messages, adviceBits int) {
	w := oracle.FieldWidth(n)
	return n - 1, (n - 1) * (w + 2*bitstring.Num2(uint64(w)) + 2)
}

// Name implements oracle.Oracle.
func (o Oracle) Name() string { return "wakeup-tree" }

// Advise implements oracle.Oracle: it encodes, for every internal node of
// the chosen spanning tree, the ports leading to its children.
func (o Oracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	if o.Tree == TreeBFS {
		return adviseBFS(g, source)
	}
	tree, err := o.buildTree(g, source)
	if err != nil {
		return nil, err
	}
	// Port numbers are < n; the paper uses exactly ceil(log n)-bit fields.
	n, width := g.N(), oracle.FieldWidth(g.N())
	// At most n headers and n-1 fields.
	arena := bitstring.NewArena(make(sim.Advice, 0, n), n*(bitstring.DoubledLen(uint64(width))+width))
	for v := graph.NodeID(0); int(v) < n; v++ {
		w := arena.Begin()
		kids := tree.Children(v)
		if len(kids) == 0 {
			continue // leaves get the empty string
		}
		w.AppendDoubled(uint64(width))
		for _, c := range kids {
			w.WriteFixed(uint64(c.Port), width)
		}
	}
	return arena.Strings(), nil
}

// bfsScratch is adviseBFS's working storage, pooled so that only the
// advice it returns is allocated per call.
type bfsScratch struct {
	visited []bool
	queue   []graph.NodeID
	// strs holds the strings in the order the search wrote them; it is
	// cleared before the scratch goes back to the pool.
	strs []bitstring.String
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// adviseBFS is Advise on the breadth-first tree, built during its one
// search instead of through a spantree.Tree. Scanning a node's ports in
// increasing order, the search makes each neighbour it reaches first that
// node's child, exactly as spantree.BFS does, and meets the children in
// increasing port order, the order Tree.Children lists them in; so a
// node's string is written whole when the search leaves it.
func adviseBFS(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	n, width := g.N(), oracle.FieldWidth(g.N())
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	visited := slices.Grow(sc.visited[:0], n)[:n]
	clear(visited)
	queue := append(slices.Grow(sc.queue[:0], n), source)
	sc.visited, sc.queue = visited, queue
	visited[source] = true
	arena := bitstring.NewArena(slices.Grow(sc.strs[:0], n), n*(bitstring.DoubledLen(uint64(width))+width))
	for i := 0; i < len(queue); i++ {
		w := arena.Begin() // queue[i]'s string; a leaf's stays empty
		leaf := true
		for p, h := range g.Ports(queue[i]) {
			if visited[h.To] {
				continue
			}
			visited[h.To] = true
			queue = append(queue, h.To)
			if leaf {
				w.AppendDoubled(uint64(width))
				leaf = false
			}
			w.WriteFixed(uint64(p), width)
		}
	}
	if len(queue) != n {
		return nil, spantree.ErrNotConnected
	}
	strs := arena.Strings()
	advice := make(sim.Advice, n)
	for i, v := range queue {
		advice[v] = strs[i]
	}
	clear(strs)
	sc.strs = strs
	return advice, nil
}

func (o Oracle) buildTree(g *graph.Graph, source graph.NodeID) (*spantree.Tree, error) {
	switch o.Tree {
	case TreeBFS:
		return spantree.BFS(g, source)
	case TreeDFS:
		return spantree.DFS(g, source)
	case TreeLight:
		edges, err := spantree.Light(g)
		if err != nil {
			return nil, err
		}
		return spantree.Rooted(g, edges, source)
	default:
		return nil, fmt.Errorf("wakeup: unknown tree kind %d", o.Tree)
	}
}

// encodeChildPorts produces β(width) followed by each child port in a
// fixed-width field. The paper emits α then β and parses from the rear;
// emitting β first is stream-decodable and has the same length (DESIGN.md).
func encodeChildPorts(kids []spantree.Child, width int) bitstring.String {
	var w bitstring.Writer
	w.AppendDoubled(uint64(width))
	for _, c := range kids {
		w.WriteFixed(uint64(c.Port), width)
	}
	return w.String()
}

// DecodeChildPorts parses an advice string back into the list of child
// ports. An empty string decodes to no children (a leaf).
func DecodeChildPorts(s bitstring.String) ([]int, error) {
	if s.Empty() {
		return nil, nil
	}
	r := bitstring.NewReader(s)
	width64, err := r.ReadDoubled()
	if err != nil {
		return nil, fmt.Errorf("wakeup: decoding header: %w", err)
	}
	width := int(width64)
	if width <= 0 || width > 62 {
		return nil, fmt.Errorf("wakeup: invalid field width %d", width)
	}
	if r.Remaining()%width != 0 {
		return nil, fmt.Errorf("wakeup: %d payload bits not divisible by width %d", r.Remaining(), width)
	}
	ports := make([]int, 0, r.Remaining()/width)
	for r.Remaining() > 0 {
		p, err := r.ReadFixed(width)
		if err != nil {
			return nil, fmt.Errorf("wakeup: decoding port: %w", err)
		}
		ports = append(ports, int(p))
	}
	return ports, nil
}

// Algorithm is the Theorem 2.1 wakeup scheme: the source spontaneously
// sends the message on all its advised child ports; every other node, on
// first being woken, forwards it on its advised child ports. Exactly one
// message crosses every tree edge: n-1 messages in total. The scheme is
// anonymous (labels are never read) and asynchronous-safe.
type Algorithm struct{}

// Name implements scheme.Algorithm.
func (Algorithm) Name() string { return "wakeup-tree" }

// NewNode implements scheme.Algorithm.
func (Algorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	return &node{advice: info.Advice, degree: info.Degree, source: info.Source}
}

// NewNodes implements scheme.NodeBatcher: all automata of a run share one
// slab of s instead of n individual heap objects.
func (Algorithm) NewNodes(infos []scheme.NodeInfo, dst []scheme.Node, s *scheme.Scratch) {
	backing := scheme.Slab[node](s, len(infos))
	for i := range infos {
		info, nd := &infos[i], &backing[i]
		nd.advice, nd.degree, nd.source = info.Advice, info.Degree, info.Source
		dst[i] = nd
	}
}

// node keeps the part of its NodeInfo the scheme reads: it is anonymous,
// so no label.
type node struct {
	advice        bitstring.String
	degree        int
	source, awake bool
}

func (nd *node) Init(out []scheme.Send) []scheme.Send {
	if !nd.source {
		return out // the defining wakeup constraint
	}
	nd.awake = true
	return nd.forward(out)
}

func (nd *node) Receive(msg scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	if nd.awake || !msg.Informed {
		return out
	}
	nd.awake = true
	return nd.forward(out)
}

func (nd *node) forward(out []scheme.Send) []scheme.Send {
	// Decode straight into the send list with a stack Reader; semantically
	// DecodeChildPorts followed by the port-validity filter, without the
	// intermediate ports slice. Malformed advice means a buggy oracle
	// pairing — a scheme has no error channel, so it surfaces as a stalled
	// (incomplete) run.
	if nd.advice.Empty() {
		return out
	}
	var r bitstring.Reader
	r.Reset(nd.advice)
	width64, err := r.ReadDoubled()
	if err != nil {
		return out
	}
	width := int(width64)
	if width <= 0 || width > 62 || r.Remaining()%width != 0 {
		return out
	}
	sends := out
	for r.Remaining() > 0 {
		p64, err := r.ReadFixed(width)
		if err != nil {
			return out
		}
		if p := int(p64); p >= 0 && p < nd.degree {
			sends = scheme.AppendSend(sends, p, scheme.KindM, 0)
		}
	}
	return sends
}

// Flooding is the zero-advice wakeup baseline: the source floods, and every
// node forwards on all other ports when first woken. Legal as a wakeup
// (silent until woken) and complete, but costs up to 2m messages.
type Flooding struct{}

// Name implements scheme.Algorithm.
func (Flooding) Name() string { return "wakeup-flooding" }

// NewNode implements scheme.Algorithm.
func (Flooding) NewNode(info scheme.NodeInfo) scheme.Node {
	return &floodNode{degree: info.Degree, source: info.Source}
}

// NewNodes implements scheme.NodeBatcher.
func (Flooding) NewNodes(infos []scheme.NodeInfo, dst []scheme.Node, s *scheme.Scratch) {
	backing := scheme.Slab[floodNode](s, len(infos))
	for i := range infos {
		nd := &backing[i]
		nd.degree, nd.source = infos[i].Degree, infos[i].Source
		dst[i] = nd
	}
}

// floodNode keeps only its degree and flags, so its slab holds no pointer
// for the collector to scan.
type floodNode struct {
	degree        int
	source, awake bool
}

func (nd *floodNode) Init(out []scheme.Send) []scheme.Send {
	if !nd.source {
		return out
	}
	nd.awake = true
	return floodSends(out, nd.degree, -1)
}

func (nd *floodNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.awake || !msg.Informed {
		return out
	}
	nd.awake = true
	return floodSends(out, nd.degree, port)
}

// floodSends appends the source message on every port but except.
func floodSends(out []scheme.Send, degree, except int) []scheme.Send {
	for p := 0; p < degree; p++ {
		if p != except {
			out = scheme.AppendSend(out, p, scheme.KindM, 0)
		}
	}
	return out
}

// Package broadcast implements the paper's Theorem 3.1: an oracle of size
// O(n) bits that lets an anonymous, asynchronous network broadcast with a
// linear number of messages — strictly less knowledge than the Θ(n log n)
// an equally-efficient wakeup needs (Theorem 2.2).
//
// The construction weights every edge e = {u,v} by
// w(e) = min{port_u(e), port_v(e)} and computes the light spanning tree T0
// of Claim 3.1, whose total weight-encoding contribution Σ #2(w(e)) is at
// most 4n. For each tree edge, the oracle gives the binary representation
// of w(e) to the endpoint whose port number equals the weight; a node's
// advice is the self-delimiting concatenation of its assigned weights, i.e.
// the list of its known tree ports K_x. Scheme B (the paper's Figure 1)
// then uses spontaneous "hello" control messages to make every tree edge
// known at both endpoints — the spontaneity is exactly what wakeup forbids
// — and floods the source message along the tree.
package broadcast

import (
	"fmt"
	"slices"
	"sync"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
	"oraclesize/internal/wakeup"
)

// TreeKind selects the spanning tree whose edges the oracle reveals.
// Scheme B works over any spanning tree; the choice trades advice bits
// against completion time.
type TreeKind uint8

// Spanning tree choices for Oracle.
const (
	// TreeLight is the Claim 3.1 construction: O(n) bits, but the tree
	// may be deep (slow completion). The paper's choice.
	TreeLight TreeKind = iota
	// TreeBFS roots a breadth-first tree at the source: depth-optimal
	// completion, but edge weights are unconstrained, so the advice can
	// cost Θ(n log n) bits — the knowledge/time trade-off the paper's
	// conclusion asks about.
	TreeBFS
)

// Oracle is the Theorem 3.1 broadcast oracle.
type Oracle struct {
	// Codec self-delimits the per-port weights; nil selects the paper's
	// doubled-bit code.
	Codec *bitstring.Codec
	// Tree selects the spanning tree; zero value is the paper's light
	// tree.
	Tree TreeKind
}

// Bound is Theorem 3.1 as this encoding meets it on n nodes. Scheme B
// sends at most 3(n-1) messages over any spanning tree (Claim 3.2: M
// crosses each tree edge at most twice, hello at most once). Oracle{}
// advice, the light tree under the doubled-bit code, spends 2·#2(w)+2
// bits on each tree edge's weight w, exactly 2·Σ#2(w(e)) + 2(n-1) bits,
// so Claim 3.1 bounds it by 2·spantree.ContributionBound(n) + 2(n-1) =
// 10n-2. The advice bound does not cover other codecs, the BFS tree or
// BudgetedOracle.
func Bound(n int) (messages, adviceBits int) {
	return 3 * (n - 1), 2*spantree.ContributionBound(n) + 2*(n-1)
}

// Name implements oracle.Oracle.
func (o Oracle) Name() string { return "broadcast-light-tree" }

// ResolvedCodec returns the self-delimiting codec this oracle (and its
// matching scheme) will use — the explicit Codec, or the paper's
// doubled-bit code by default. Exposed for consumers of the advice format
// outside this package (e.g. the spanner selector).
func (o Oracle) ResolvedCodec() bitstring.Codec { return o.codec() }

func (o Oracle) codec() bitstring.Codec {
	if o.Codec != nil {
		return *o.Codec
	}
	c, err := bitstring.CodecByName("doubled")
	if err != nil {
		panic(err) // the codec table always contains "doubled"
	}
	return c
}

// Advise implements oracle.Oracle. With the default light tree the source
// parameter is unused: the oracle's information is independent of the
// source, another contrast with the wakeup oracle (whose tree must be
// rooted at the source). With TreeBFS the tree is rooted at the source to
// make completion time proportional to the eccentricity.
func (o Oracle) Advise(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	pg := portGroupsPool.Get().(*portGroups)
	defer portGroupsPool.Put(pg)
	var edges []graph.Edge
	var err error
	switch o.Tree {
	case TreeLight:
		edges, err = spantree.AppendLight(pg.edges[:0], g)
		pg.edges = edges
	case TreeBFS:
		var tree *spantree.Tree
		tree, err = spantree.BFS(g, source)
		if err == nil {
			edges = tree.Edges()
		}
	default:
		return nil, fmt.Errorf("broadcast: unknown tree kind %d", o.Tree)
	}
	if err != nil {
		return nil, err
	}
	return o.adviseForTree(g, edges, pg)
}

// portGroups is Advise's working storage, pooled so that only the advice
// it returns is allocated per call: the light tree's edges, which the
// oracle drops once grouped, and adviseForTree's CSR grouping.
type portGroups struct {
	edges              []graph.Edge
	off, ports, cursor []int32
}

var portGroupsPool = sync.Pool{New: func() any { return new(portGroups) }}

func (o Oracle) adviseForTree(g *graph.Graph, edges []graph.Edge, pg *portGroups) (sim.Advice, error) {
	codec := o.codec()
	// Group the assigned ports by node in CSR form (count, prefix-sum,
	// fill), preserving edge order within each node's group so the advice
	// bits match the map-of-slices construction exactly.
	n := g.N()
	pg.off = slices.Grow(pg.off[:0], n+1)[:n+1]
	off := pg.off
	clear(off)
	bits := 0
	for _, e := range edges {
		x, p := AssignedEndpoint(e)
		off[x+1]++
		bits += codec.Len(uint64(p))
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	pg.ports = slices.Grow(pg.ports[:0], int(off[n]))[:off[n]]
	pg.cursor = slices.Grow(pg.cursor[:0], n)[:n]
	ports, cursor := pg.ports, pg.cursor
	copy(cursor, off[:n])
	for _, e := range edges {
		x, p := AssignedEndpoint(e)
		ports[cursor[x]] = int32(p)
		cursor[x]++
	}
	arena := bitstring.NewArena(make(sim.Advice, 0, n), bits)
	for v := 0; v < n; v++ {
		w := arena.Begin()
		for _, p := range ports[off[v]:off[v+1]] {
			codec.Append(w, uint64(p))
		}
	}
	return arena.Strings(), nil
}

// AssignedEndpoint returns the endpoint x of e that receives the weight
// w(e), i.e. the one with port_x(e) = w(e), and the port value itself.
// Ties (equal ports) go to the canonical smaller endpoint.
func AssignedEndpoint(e graph.Edge) (graph.NodeID, int) {
	e = e.Canonical()
	if e.PU <= e.PV {
		return e.U, e.PU
	}
	return e.V, e.PV
}

// DecodePorts parses an advice string back into the list of known ports
// K_x, under the given codec.
func DecodePorts(s bitstring.String, codec bitstring.Codec) ([]int, error) {
	r := bitstring.NewReader(s)
	var ports []int
	for r.Remaining() > 0 {
		p, err := codec.Read(r)
		if err != nil {
			return nil, fmt.Errorf("broadcast: decoding port list: %w", err)
		}
		ports = append(ports, int(p))
	}
	return ports, nil
}

// Algorithm is the paper's Scheme B (Figure 1). Each node tracks three port
// sets:
//
//	K_x — incident tree edges known to x (oracle ports, plus ports on
//	      which messages arrived),
//	H_x — ports on which a "hello" may still be owed,
//	S_x — ports through which the source message M has already transited.
//
// At startup every node spontaneously sends "hello" on its oracle-known
// ports (the broadcast-only power), so each tree edge becomes known at both
// endpoints. Once a node is informed it keeps the invariant S_x = K_x by
// sending M on every newly learned port.
type Algorithm struct {
	// Codec must match the oracle's; nil selects the paper's doubled-bit
	// code.
	Codec *bitstring.Codec
}

// Name implements scheme.Algorithm.
func (Algorithm) Name() string { return "scheme-B" }

// NewNode implements scheme.Algorithm.
func (a Algorithm) NewNode(info scheme.NodeInfo) scheme.Node {
	codec := Oracle{Codec: a.Codec}.codec()
	nd := &node{}
	words := bitsetWords(info.Degree)
	backing := make([]uint64, 2*words)
	nd.known = backing[:words]
	nd.sentM = backing[words:]
	var r bitstring.Reader
	nd.init(&r, &info, codec)
	return nd
}

// NewNodes implements scheme.NodeBatcher: the automata and their port
// bitsets are carved from two slabs of s instead of per-node objects, and
// one Reader, carved from a third, serves every advice decode: the
// indirect codec.Read call makes any Reader it reads escape to the heap.
func (a Algorithm) NewNodes(infos []scheme.NodeInfo, dst []scheme.Node, s *scheme.Scratch) {
	codec := Oracle{Codec: a.Codec}.codec()
	backing := scheme.Slab[node](s, len(infos))
	words := 0
	for _, info := range infos {
		words += 2 * bitsetWords(info.Degree)
	}
	bits := scheme.Slab[uint64](s, words)
	r := &scheme.Slab[bitstring.Reader](s, 1)[0]
	off := 0
	for i := range infos {
		info, nd := &infos[i], &backing[i]
		w := bitsetWords(info.Degree)
		nd.known = bits[off : off+w]
		nd.sentM = bits[off+w : off+2*w]
		off += 2 * w
		nd.init(r, info, codec)
		dst[i] = nd
	}
}

// bitset is a fixed-capacity port set; ports are dense in [0, degree), so a
// packed bit array replaces the former map[int]bool without changing the
// ascending-port iteration order the scheme's message order depends on.
type bitset []uint64

func bitsetWords(degree int) int { return (degree + 63) / 64 }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) setAll(n int) {
	for i := 0; i < n; i++ {
		b.set(i)
	}
}

// node keeps only what Scheme B reads after decoding its advice, so a run
// of n automata holds no n advice strings.
type node struct {
	degree           int
	source, informed bool
	known            bitset // K_x
	sentM            bitset // S_x
}

// init decodes the advice into K_x. Malformed advice (wrong codec pairing)
// leaves the node with no knowledge: the run stalls visibly rather than
// panicking, exactly as the map-based decoder behaved.
func (nd *node) init(r *bitstring.Reader, info *scheme.NodeInfo, codec bitstring.Codec) {
	nd.degree, nd.source = info.Degree, info.Source
	r.Reset(info.Advice)
	for r.Remaining() > 0 {
		p, err := codec.Read(r)
		if err != nil {
			clear(nd.known)
			return
		}
		if p < uint64(info.Degree) {
			nd.known.set(int(p))
		}
	}
}

func (nd *node) Init(out []scheme.Send) []scheme.Send {
	if nd.source {
		nd.informed = true
		// H_x ← H_x \ S_x leaves nothing: the source already sent M on
		// every known port, so it owes no hellos.
		return nd.flushM(out)
	}
	// Non-source: H_x = K_x, send hello everywhere, H_x ← ∅.
	for p := 0; p < nd.degree; p++ {
		if nd.known.get(p) {
			out = scheme.AppendSend(out, p, scheme.KindHello, 0)
		}
	}
	return out
}

func (nd *node) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	nd.known.set(port)
	if msg.Informed {
		// The source message transited this edge (it is appended to every
		// message an informed node sends), so never send M back on it.
		nd.sentM.set(port)
		nd.informed = true
	}
	if !nd.informed {
		return out
	}
	return nd.flushM(out)
}

// flushM restores the invariant S_x = K_x: send M on all known ports it has
// not yet transited.
func (nd *node) flushM(out []scheme.Send) []scheme.Send {
	for p := 0; p < nd.degree; p++ {
		if nd.known.get(p) && !nd.sentM.get(p) {
			nd.sentM.set(p)
			out = scheme.AppendSend(out, p, scheme.KindM, 0)
		}
	}
	return out
}

// Flooding is the zero-advice broadcast baseline. It builds wakeup
// flooding's automaton (spontaneity buys nothing without knowledge to
// encode) under its own name, which tables and served responses carry.
type Flooding struct{ wakeup.Flooding }

// Name implements scheme.Algorithm.
func (Flooding) Name() string { return "broadcast-flooding" }

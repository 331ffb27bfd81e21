package mst

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// Borůvka phase protocol. Each phase is one simulation run:
//
//  1. every node sends an identification probe (fragment id, its own port
//     number, its label) on every port — so both endpoints of every edge
//     learn whether it leaves their fragment and what it weighs;
//  2. once a node has heard all its neighbors, it folds its best outgoing
//     candidate with its children's reports and convergecasts the minimum
//     up the fragment tree (ports from the phase advice);
//  3. each fragment root outputs the fragment's minimum outgoing edge.
//
// The driver (Boruvka, below) merges fragments on the proposed edges,
// rebuilds the fragment trees, and repeats until one fragment remains.

// BoruvkaResult summarizes a full distributed run.
type BoruvkaResult struct {
	// Edges is the constructed tree (canonical, sorted).
	Edges []graph.Edge
	// Phases is the number of Borůvka rounds executed.
	Phases int
	// Messages totals all phases' message counts.
	Messages int
	// MessageBits totals the bandwidth across phases.
	MessageBits int
}

// Boruvka runs the zero-advice distributed MST construction. The scheduler
// factory (nil for FIFO) orders deliveries within each phase; the protocol
// is asynchrony-safe because every step waits on explicit counters.
func Boruvka(g *graph.Graph, newSched sim.SchedulerFactory) (*BoruvkaResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("mst: graph is not connected")
	}
	res := &BoruvkaResult{}
	if n == 1 {
		return res, nil
	}

	dsu := newDSU(n)
	var chosen []graph.Edge
	fragments := n
	for fragments > 1 {
		res.Phases++
		if res.Phases > 2*bitsLen(n)+4 {
			return nil, fmt.Errorf("mst: phase bound exceeded (%d fragments left)", fragments)
		}
		advice, roots, err := phaseAdvice(g, dsu, chosen)
		if err != nil {
			return nil, err
		}
		var sched sim.Scheduler
		if newSched != nil {
			sched = newSched()
		}
		run, err := sim.Run(g, 0, phaseAlgo{}, advice, sim.Options{
			Scheduler:   sched,
			RetainNodes: true,
			MaxMessages: 8*(g.M()+n) + 1024,
		})
		if err != nil {
			return nil, fmt.Errorf("mst: phase %d: %w", res.Phases, err)
		}
		res.Messages += run.Messages
		res.MessageBits += run.MessageBits

		proposals, err := collectProposals(g, run.Nodes, roots)
		if err != nil {
			return nil, fmt.Errorf("mst: phase %d: %w", res.Phases, err)
		}
		if len(proposals) == 0 {
			return nil, fmt.Errorf("mst: phase %d proposed no edges with %d fragments", res.Phases, fragments)
		}
		for _, e := range proposals {
			ru, rv := dsu.find(e.U), dsu.find(e.V)
			if ru == rv {
				continue // the two endpoints' fragments chose the same edge
			}
			dsu.union(ru, rv)
			chosen = append(chosen, e.Canonical())
			fragments--
		}
	}
	sortEdges(chosen)
	res.Edges = chosen
	return res, nil
}

func bitsLen(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	return b
}

// phaseAdvice encodes, for every node: the field width (doubled code), the
// fragment id (gamma), a root marker, the parent port when not the root,
// and the child ports — the node's view of its fragment tree.
func phaseAdvice(g *graph.Graph, dsu *dsu, chosen []graph.Edge) (sim.Advice, map[graph.NodeID]bool, error) {
	n := g.N()
	// Fragment id := smallest label in the fragment.
	fragID := make(map[graph.NodeID]int64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		r := dsu.find(v)
		if cur, ok := fragID[r]; !ok || g.Label(v) < cur {
			fragID[r] = g.Label(v)
		}
	}
	// Fragment trees: BFS over chosen edges, rooted at the min-label node.
	adj := make([][]graph.Edge, n)
	for _, e := range chosen {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	parentPort := make([]int, n)
	childPorts := make([][]int, n)
	isRoot := make(map[graph.NodeID]bool, n)
	visited := make([]bool, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		r := dsu.find(v)
		if g.Label(v) != fragID[r] {
			continue
		}
		// v is its fragment's root.
		isRoot[v] = true
		parentPort[v] = -1
		visited[v] = true
		queue := []graph.NodeID{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, e := range adj[x] {
				y, px, py := e.V, e.PU, e.PV
				if y == x {
					y, px, py = e.U, e.PV, e.PU
				}
				if visited[y] {
					continue
				}
				visited[y] = true
				parentPort[y] = py
				childPorts[x] = append(childPorts[x], px)
				queue = append(queue, y)
			}
		}
	}
	for v := range visited {
		if !visited[v] {
			return nil, nil, fmt.Errorf("mst: node %d not covered by fragment trees", v)
		}
	}
	width := oracle.FieldWidth(n)
	advice := make(sim.Advice, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		var w bitstring.Writer
		w.AppendDoubled(uint64(width))
		w.AppendGamma0(uint64(fragID[dsu.find(v)]))
		if isRoot[v] {
			w.WriteBit(true)
		} else {
			w.WriteBit(false)
			w.WriteFixed(uint64(parentPort[v]), width)
		}
		for _, p := range childPorts[v] {
			w.WriteFixed(uint64(p), width)
		}
		advice[v] = w.String()
	}
	return advice, isRoot, nil
}

// collectProposals reads the fragment roots' outcomes and resolves them to
// concrete edges.
func collectProposals(g *graph.Graph, nodes []scheme.Node, roots map[graph.NodeID]bool) ([]graph.Edge, error) {
	var out []graph.Edge
	portIdx := g.PortIndex()
	for v := range roots {
		nd, ok := nodes[v].(*phaseNode)
		if !ok {
			return nil, fmt.Errorf("mst: unexpected automaton %T", nodes[v])
		}
		if !nd.done {
			return nil, fmt.Errorf("mst: fragment root %d did not finish its phase", v)
		}
		if !nd.best.valid {
			// A fragment with no outgoing edge can only be the whole
			// graph; with >1 fragments on a connected graph this is a bug.
			return nil, fmt.Errorf("mst: fragment root %d found no outgoing edge", v)
		}
		u, uok := g.NodeByLabel(nd.best.lo)
		w, wok := g.NodeByLabel(nd.best.hi)
		if !uok || !wok {
			return nil, fmt.Errorf("mst: proposal labels {%d,%d} unknown", nd.best.lo, nd.best.hi)
		}
		p := portIdx.PortTo(u, w)
		if p < 0 {
			return nil, fmt.Errorf("mst: proposal {%d,%d} is not an edge", nd.best.lo, nd.best.hi)
		}
		to, q := g.Neighbor(u, p)
		out = append(out, graph.Edge{U: u, V: to, PU: p, PV: q}.Canonical())
	}
	return out, nil
}

// candidate is an edge in the convergecast, as (weight, endpoint labels).
type candidate struct {
	valid  bool
	w      int
	lo, hi int64
}

func better(a, b candidate) candidate {
	switch {
	case !a.valid:
		return b
	case !b.valid:
		return a
	case a.w != b.w:
		if a.w < b.w {
			return a
		}
		return b
	case a.lo != b.lo:
		if a.lo < b.lo {
			return a
		}
		return b
	default:
		if a.hi <= b.hi {
			return a
		}
		return b
	}
}

// phaseAlgo is the per-phase automaton.
type phaseAlgo struct{}

// Name implements scheme.Algorithm.
func (phaseAlgo) Name() string { return "boruvka-phase" }

// NewNode implements scheme.Algorithm.
func (phaseAlgo) NewNode(info scheme.NodeInfo) scheme.Node {
	nd := &phaseNode{info: info, parent: -1}
	r := bitstring.NewReader(info.Advice)
	width64, err := r.ReadDoubled()
	if err != nil {
		nd.broken = true
		return nd
	}
	width := int(width64)
	if width <= 0 || width > 62 {
		nd.broken = true
		return nd
	}
	frag, err := r.ReadGamma0()
	if err != nil {
		nd.broken = true
		return nd
	}
	nd.frag = int64(frag)
	root, err := r.ReadBit()
	if err != nil {
		nd.broken = true
		return nd
	}
	nd.isRoot = root
	if !root {
		p, err := r.ReadFixed(width)
		if err != nil {
			nd.broken = true
			return nd
		}
		nd.parent = int(p)
	}
	for r.Remaining() >= width {
		p, err := r.ReadFixed(width)
		if err != nil {
			nd.broken = true
			return nd
		}
		nd.children = append(nd.children, int(p))
	}
	return nd
}

type phaseNode struct {
	info     scheme.NodeInfo
	broken   bool
	frag     int64
	isRoot   bool
	parent   int
	children []int

	probesSeen  int
	reportsSeen int
	best        candidate // own outgoing candidate folded with children's
	sentUp      bool
	done        bool
}

func (nd *phaseNode) Init(out []scheme.Send) []scheme.Send {
	if nd.broken {
		return out
	}
	// Step 1: identify ourselves on every port. Values: fragment id, our
	// port number (so the receiver can compute the edge weight), our label.
	for p := 0; p < nd.info.Degree; p++ {
		out = append(out, scheme.Send{Port: p, Msg: scheme.Message{
			Kind:   scheme.KindProbe,
			Values: []int64{nd.frag, int64(p), nd.info.Label},
		}})
	}
	// A single-node fragment with degree 0 cannot exist in a connected
	// graph with n > 1; for n == 1 the driver never starts a phase.
	return out
}

func (nd *phaseNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if nd.broken {
		return out
	}
	switch msg.Kind {
	case scheme.KindProbe:
		if len(msg.Values) != 3 {
			return out
		}
		nd.probesSeen++
		nbrFrag, nbrPort, nbrLabel := msg.Values[0], int(msg.Values[1]), msg.Values[2]
		if nbrFrag != nd.frag {
			w := port
			if nbrPort < w {
				w = nbrPort
			}
			lo, hi := nd.info.Label, nbrLabel
			if lo > hi {
				lo, hi = hi, lo
			}
			nd.best = better(nd.best, candidate{valid: true, w: w, lo: lo, hi: hi})
		}
	case scheme.KindUp:
		nd.reportsSeen++
		if len(msg.Values) == 3 {
			nd.best = better(nd.best, candidate{
				valid: true,
				w:     int(msg.Values[0]),
				lo:    msg.Values[1],
				hi:    msg.Values[2],
			})
		}
		// len 0: the child subtree had no outgoing edge.
	default:
		return out
	}
	return nd.maybeReport(out)
}

// maybeReport fires the convergecast step when both counters are satisfied.
func (nd *phaseNode) maybeReport(out []scheme.Send) []scheme.Send {
	if nd.sentUp || nd.done {
		return out
	}
	if nd.probesSeen < nd.info.Degree || nd.reportsSeen < len(nd.children) {
		return out
	}
	if nd.isRoot {
		nd.done = true
		return out
	}
	nd.sentUp = true
	msg := scheme.Message{Kind: scheme.KindUp}
	if nd.best.valid {
		msg.Values = []int64{int64(nd.best.w), nd.best.lo, nd.best.hi}
	}
	return append(out, scheme.Send{Port: nd.parent, Msg: msg})
}

// dsu is a union-find over NodeIDs.
type dsu struct {
	parent []graph.NodeID
	size   []int
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]graph.NodeID, n), size: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = graph.NodeID(i)
		d.size[i] = 1
	}
	return d
}

func (d *dsu) find(v graph.NodeID) graph.NodeID {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]]
		v = d.parent[v]
	}
	return v
}

func (d *dsu) union(a, b graph.NodeID) {
	a, b = d.find(a), d.find(b)
	if a == b {
		return
	}
	if d.size[a] < d.size[b] {
		a, b = b, a
	}
	d.parent[b] = a
	d.size[a] += d.size[b]
}

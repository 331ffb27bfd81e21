// Package explore extends the oracle-size program to graph exploration by
// a mobile agent — the other problem class the paper's conclusion names
// (and the subject of its reference [7], Dessmark–Pelc). An agent starts
// at a node of an unknown port-numbered network, moves along edges, and
// must visit every node; its cost is the number of edge traversals.
//
// Two strategies bracket the knowledge scale exactly as the communication
// tasks do: with zero advice the agent performs a DFS over the whole edge
// set (O(m) moves — each edge may be probed from both sides and bounced,
// so up to ~4m); with a Θ(n log n)-bit tree oracle (the same advice format
// as the Theorem 2.1 wakeup oracle) it walks an Euler tour of a spanning
// tree (exactly 2(n-1) moves) and returns home.
package explore

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// View is everything the agent perceives at its current node.
type View struct {
	// Label is the current node's label.
	Label int64
	// Degree is the current node's degree.
	Degree int
	// Advice is the oracle string at the current node.
	Advice bitstring.String
	// ArrivalPort is the local port through which the agent entered, or
	// -1 at the start node before any move.
	ArrivalPort int
}

// Strategy decides the agent's moves. Implementations carry the agent's
// memory (the agent is a single walker, so strategies are stateful by
// design — unlike node schemes).
type Strategy interface {
	Name() string
	// Next returns the port to leave through, or done=true to stop.
	Next(view View) (port int, done bool)
}

// Result summarizes an exploration run.
type Result struct {
	// Moves counts edge traversals (the exploration cost).
	Moves int
	// Visited counts distinct nodes seen.
	Visited int
	// Complete reports whether every node was visited.
	Complete bool
	// Home reports whether the agent stopped at its start node.
	Home bool
}

// Run walks the strategy over g from start until it declares done or the
// move cap is hit. A cap of 0 selects 8·(m+n)+64.
func Run(g *graph.Graph, start graph.NodeID, advice sim.Advice, s Strategy, maxMoves int) (*Result, error) {
	if start < 0 || int(start) >= g.N() {
		return nil, fmt.Errorf("explore: start %d out of range [0,%d)", start, g.N())
	}
	if maxMoves == 0 {
		maxMoves = 8*(g.M()+g.N()) + 64
	}
	visited := make([]bool, g.N())
	visited[start] = true
	res := &Result{Visited: 1}
	cur := start
	arrival := -1
	for {
		view := View{
			Label:       g.Label(cur),
			Degree:      g.Degree(cur),
			Advice:      advice.Of(cur),
			ArrivalPort: arrival,
		}
		port, done := s.Next(view)
		if done {
			break
		}
		if port < 0 || port >= g.Degree(cur) {
			return nil, fmt.Errorf("explore: strategy %q chose invalid port %d at node %d", s.Name(), port, cur)
		}
		if res.Moves >= maxMoves {
			return nil, fmt.Errorf("explore: strategy %q exceeded %d moves", s.Name(), maxMoves)
		}
		next, backPort := g.Neighbor(cur, port)
		res.Moves++
		cur = next
		arrival = backPort
		if !visited[cur] {
			visited[cur] = true
			res.Visited++
		}
	}
	res.Complete = res.Visited == g.N()
	res.Home = cur == start
	return res, nil
}

// DFS is the zero-advice exploration strategy: a depth-first traversal of
// the whole edge set, using the agent's memory of node labels. Tree edges
// are walked twice; a non-tree edge may be probed (and bounced) from both
// sides, so the cost is between 2(n-1) and ~4m; exploration ends back at
// the start node.
type DFS struct {
	stack []*dfsFrame
	seen  map[int64]bool
}

type dfsFrame struct {
	label    int64
	parent   int // arrival port at this node; -1 at the root
	nextPort int
	degree   int
}

// NewDFS returns a fresh zero-advice explorer.
func NewDFS() *DFS {
	return &DFS{seen: make(map[int64]bool)}
}

// Name implements Strategy.
func (*DFS) Name() string { return "dfs-no-advice" }

// Next implements Strategy.
func (d *DFS) Next(view View) (int, bool) {
	if len(d.stack) == 0 {
		// First call: adopt the start node.
		d.seen[view.Label] = true
		d.stack = append(d.stack, &dfsFrame{label: view.Label, parent: -1, degree: view.Degree})
	}
	top := d.stack[len(d.stack)-1]
	switch {
	case top.label == view.Label:
		// Continuing at the node we were working on (either fresh, or a
		// probe bounced back / a child subtree finished).
	case !d.seen[view.Label]:
		// Entered a new node: descend.
		d.seen[view.Label] = true
		top = &dfsFrame{label: view.Label, parent: view.ArrivalPort, degree: view.Degree}
		d.stack = append(d.stack, top)
	default:
		// Probe landed on an already-visited node: bounce straight back.
		return view.ArrivalPort, false
	}
	for top.nextPort < top.degree {
		p := top.nextPort
		top.nextPort++
		if p == top.parent {
			continue // the parent edge is the backtrack edge, not a probe
		}
		return p, false
	}
	// All ports tried: retreat.
	d.stack = d.stack[:len(d.stack)-1]
	if len(d.stack) == 0 {
		return 0, true // back at the start with nothing left
	}
	return top.parent, false
}

// TreeOracle produces exploration advice: the child ports of a BFS
// spanning tree rooted at the start node, in exactly the Theorem 2.1
// wakeup-oracle format (Θ(n log n) bits).
func TreeOracle(g *graph.Graph, start graph.NodeID) (sim.Advice, error) {
	return wakeup.Oracle{}.Advise(g, start)
}

// Tree is the advised strategy: an Euler tour of the oracle's spanning
// tree — exactly 2(n-1) moves, ending at home.
type Tree struct {
	stack []*treeFrame
	// descending records whether the last issued move went down into a
	// child (so the next call sees a node needing a fresh frame) or back
	// up to a parent (whose frame is already on the stack).
	descending bool
}

type treeFrame struct {
	parent    int
	kids      []int
	nextChild int
}

// NewTree returns a fresh advised explorer.
func NewTree() *Tree { return &Tree{} }

// Name implements Strategy.
func (*Tree) Name() string { return "tree-advice" }

// Next implements Strategy.
func (t *Tree) Next(view View) (int, bool) {
	if len(t.stack) == 0 || t.descending {
		// First call (at the root) or just arrived at a child.
		kids, err := wakeup.DecodeChildPorts(view.Advice)
		if err != nil {
			return 0, true // malformed advice: stop rather than wander
		}
		parent := -1
		if len(t.stack) > 0 {
			parent = view.ArrivalPort
		}
		t.stack = append(t.stack, &treeFrame{parent: parent, kids: kids})
	}
	top := t.stack[len(t.stack)-1]
	if top.nextChild < len(top.kids) {
		p := top.kids[top.nextChild]
		top.nextChild++
		if p < 0 || p >= view.Degree {
			return 0, true
		}
		t.descending = true
		return p, false
	}
	// Subtree finished: retreat to the parent frame.
	t.stack = t.stack[:len(t.stack)-1]
	t.descending = false
	if len(t.stack) == 0 {
		return 0, true // tour complete, back home
	}
	return top.parent, false
}

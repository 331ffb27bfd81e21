// Package radio models the synchronous radio networks of the paper's
// related-work discussion (§1.1): in each round a node either transmits or
// listens; a listening node receives a message only if exactly one of its
// neighbors transmits (collisions destroy messages silently, with no
// collision detection). The efficiency measure is broadcast *time* —
// rounds until every node is informed.
//
// The paper cites the knowledge gap in this model: with complete topology
// knowledge deterministic broadcast runs in O(D + log^2 n) rounds, while
// with only one's own identity Ω(n log D) rounds are needed. This package
// quantifies the same gap on the oracle-size scale with implementable
// strategies (not the cited state-of-the-art constructions):
//
//   - RoundRobin: nodes know only their label and n (O(log n) advice
//     bits each); informed nodes transmit in the slot matching their
//     label. Collision-free by construction, Θ(n·D) rounds.
//   - ScheduledSequential: a full-knowledge oracle assigns each internal
//     BFS-tree node one exclusive round; ~n rounds.
//   - ScheduledLayered: the oracle colors each BFS layer greedily so that
//     same-round transmitters never share a listener; Σ_layers χ_i
//     rounds, approaching O(D·Δ) — the D-dependence knowledge buys.
package radio

import (
	"fmt"
	"sort"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/sim"
)

// Protocol decides, deterministically, whether a node transmits in a
// round. The decision may depend only on the node's advice, label, degree,
// whether/when it was informed, and the round number — the legal local
// knowledge in the model.
type Protocol interface {
	Name() string
	// Transmits reports whether the node transmits in the given round
	// (1-based). informedAt is the round the node became informed (0 for
	// the source, -1 if not yet informed — such nodes may never transmit).
	Transmits(advice bitstring.String, label int64, informedAt, round int) bool
}

// Result summarizes a radio broadcast run.
type Result struct {
	// Rounds is the completion time (rounds until all informed).
	Rounds int
	// Transmissions counts all transmit actions.
	Transmissions int
	// Collisions counts rounds×listeners where two or more neighbors
	// transmitted simultaneously.
	Collisions int
	// Complete reports whether every node was informed.
	Complete bool
}

// Run simulates the protocol from the source until completion or the round
// cap (0 selects 4·n² + 64, far above every implemented strategy).
func Run(g *graph.Graph, source graph.NodeID, advice sim.Advice, p Protocol, maxRounds int) (*Result, error) {
	n := g.N()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("radio: source %d out of range [0,%d)", source, n)
	}
	if maxRounds == 0 {
		maxRounds = 4*n*n + 64
	}
	informedAt := make([]int, n)
	for v := range informedAt {
		informedAt[v] = -1
	}
	informedAt[source] = 0
	remaining := n - 1
	res := &Result{}
	for round := 1; remaining > 0; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("radio: %q exceeded %d rounds (%d nodes uninformed)", p.Name(), maxRounds, remaining)
		}
		res.Rounds = round
		transmitting := make([]bool, n)
		for v := 0; v < n; v++ {
			if p.Transmits(advice.Of(graph.NodeID(v)), g.Label(graph.NodeID(v)), informedAt[v], round) {
				if informedAt[v] < 0 {
					return nil, fmt.Errorf("radio: %q made uninformed node %d transmit", p.Name(), v)
				}
				transmitting[v] = true
				res.Transmissions++
			}
		}
		for v := 0; v < n; v++ {
			if transmitting[v] {
				continue // transmitters do not listen this round
			}
			heard := 0
			for pp := 0; pp < g.Degree(graph.NodeID(v)); pp++ {
				u, _ := g.Neighbor(graph.NodeID(v), pp)
				if transmitting[u] {
					heard++
				}
			}
			if heard > 1 {
				res.Collisions++
			}
			if heard == 1 && informedAt[v] < 0 {
				informedAt[v] = round
				remaining--
			}
		}
	}
	res.Complete = true
	return res, nil
}

// RoundRobin is the minimal-knowledge strategy: every node knows n (its
// advice, gamma-coded) and its own label in 1..n; an informed node
// transmits in rounds congruent to its label modulo n. At most one
// transmitter per round, so no collisions ever occur.
type RoundRobin struct{}

// Name implements Protocol.
func (RoundRobin) Name() string { return "round-robin" }

// Transmits implements Protocol.
func (RoundRobin) Transmits(advice bitstring.String, label int64, informedAt, round int) bool {
	if informedAt < 0 {
		return false
	}
	n, err := bitstring.NewReader(advice).ReadGamma0()
	if err != nil || n == 0 {
		return false
	}
	return int64(round)%int64(n) == label%int64(n) && round > informedAt
}

// RoundRobinAdvice gives every node the network size n.
func RoundRobinAdvice(g *graph.Graph) sim.Advice {
	var w bitstring.Writer
	w.AppendGamma0(uint64(g.N()))
	s := w.String()
	advice := make(sim.Advice, g.N())
	for v := 0; v < g.N(); v++ {
		advice[graph.NodeID(v)] = s
	}
	return advice
}

// scheduled is the shared advice format for oracle strategies: a single
// gamma-coded transmission round (0 = never transmit).
type scheduled struct{ name string }

// Name implements Protocol.
func (s scheduled) Name() string { return s.name }

// Transmits implements Protocol.
func (scheduled) Transmits(advice bitstring.String, _ int64, informedAt, round int) bool {
	if informedAt < 0 {
		return false
	}
	slot, err := bitstring.NewReader(advice).ReadGamma0()
	if err != nil {
		return false
	}
	return slot != 0 && int(slot) == round
}

// ScheduledSequential is the scheduled protocol value.
func ScheduledSequential() Protocol { return scheduled{name: "scheduled-sequential"} }

// ScheduledLayered is the layered-coloring protocol value (same advice
// format; only the oracle differs).
func ScheduledLayered() Protocol { return scheduled{name: "scheduled-layered"} }

// SequentialAdvice assigns each internal BFS-tree node one exclusive round
// in BFS order: collision-free, completes in (number of internal nodes)
// rounds.
func SequentialAdvice(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	bfs := g.BFS(source)
	if len(bfs.Order) != g.N() {
		return nil, fmt.Errorf("radio: graph not connected from source")
	}
	hasChild := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if p := bfs.Parent[v]; p >= 0 {
			hasChild[p] = true
		}
	}
	advice := make(sim.Advice, g.N())
	slot := 0
	for _, v := range bfs.Order { // BFS order: parents informed before their slot
		var w bitstring.Writer
		if hasChild[v] {
			slot++
			w.AppendGamma0(uint64(slot))
		} else {
			w.AppendGamma0(0)
		}
		advice[v] = w.String()
	}
	return advice, nil
}

// LayeredAdvice colors each BFS layer's internal nodes greedily so that no
// two same-round transmitters share an uninformed listener; layer i's
// colors occupy rounds after layer i-1's. Completion in Σ_i χ_i rounds —
// the knowledge-bought D-dependence.
func LayeredAdvice(g *graph.Graph, source graph.NodeID) (sim.Advice, error) {
	bfs := g.BFS(source)
	if len(bfs.Order) != g.N() {
		return nil, fmt.Errorf("radio: graph not connected from source")
	}
	hasChild := make([]bool, g.N())
	maxDist := 0
	for v := 0; v < g.N(); v++ {
		if p := bfs.Parent[v]; p >= 0 {
			hasChild[p] = true
		}
		if bfs.Dist[v] > maxDist {
			maxDist = bfs.Dist[v]
		}
	}
	layers := make([][]graph.NodeID, maxDist+1)
	for v := 0; v < g.N(); v++ {
		layers[bfs.Dist[v]] = append(layers[bfs.Dist[v]], graph.NodeID(v))
	}
	slotOf := make([]int, g.N())
	base := 0
	for _, layer := range layers {
		// Same-layer transmitters are distance-2 colored so no two of
		// them sharing any listener use the same round.
		var transmitters []graph.NodeID
		for _, v := range layer {
			if hasChild[v] {
				transmitters = append(transmitters, v)
			}
		}
		sort.Slice(transmitters, func(i, j int) bool { return transmitters[i] < transmitters[j] })
		colors := make(map[graph.NodeID]int, len(transmitters))
		maxColor := 0
		for _, v := range transmitters {
			// Distance-2 coloring within the layer: two same-round
			// transmitters must not share any neighbor, so no listener
			// anywhere ever hears two of them (zero collisions, not just
			// zero harmful ones).
			used := make(map[int]bool)
			for p := 0; p < g.Degree(v); p++ {
				u, _ := g.Neighbor(v, p)
				for q := 0; q < g.Degree(u); q++ {
					t, _ := g.Neighbor(u, q)
					if c, ok := colors[t]; ok {
						used[c] = true
					}
				}
			}
			c := 1
			for used[c] {
				c++
			}
			colors[v] = c
			if c > maxColor {
				maxColor = c
			}
		}
		for v, c := range colors {
			slotOf[v] = base + c
		}
		base += maxColor
	}
	advice := make(sim.Advice, g.N())
	for v := 0; v < g.N(); v++ {
		var w bitstring.Writer
		w.AppendGamma0(uint64(slotOf[v]))
		advice[graph.NodeID(v)] = w.String()
	}
	return advice, nil
}

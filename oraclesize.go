// Package oraclesize is a faithful reproduction of
//
//	Pierre Fraigniaud, David Ilcinkas, Andrzej Pelc.
//	"Oracle size: a new measure of difficulty for communication tasks."
//	PODC 2006.
//
// The paper models all knowledge that network nodes have about their network
// as an oracle — a function assigning each node a binary advice string — and
// proposes the minimum total advice size for solving a task efficiently as a
// quantitative difficulty measure. Its headline result separates two
// near-identical dissemination primitives: wakeup with a linear number of
// messages needs Θ(n log n) advice bits, while broadcast with a linear
// number of messages needs only Θ(n).
//
// This package is the public face of the repository: it re-exports the
// building blocks (port-numbered graphs, oracles, schemes, simulation
// engines) and offers one-call runners for the paper's two constructions.
// The full machinery — graph families, the Lemma 2.1 adversary, the
// counting bounds, the experiment suite E1–E20 — lives in the internal
// packages and is exercised by cmd/benchtables, the examples, and the
// benchmarks in bench_test.go.
package oraclesize

import (
	"fmt"
	"math/rand"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/catalog"
	"oraclesize/internal/explore"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// Core model types, re-exported for API users.
type (
	// Graph is an immutable labeled port-numbered network.
	Graph = graph.Graph
	// NodeID indexes nodes densely in [0, N).
	NodeID = graph.NodeID
	// GraphBuilder assembles graphs edge by edge.
	GraphBuilder = graph.Builder
	// Advice holds every node's oracle string, indexed by NodeID; its
	// SizeBits is the paper's oracle-size measure.
	Advice = sim.Advice
	// Algorithm is a distributed scheme (one automaton per node).
	Algorithm = scheme.Algorithm
	// RunResult summarizes a simulation run.
	RunResult = sim.Result
)

// NewGraphBuilder returns a builder for n nodes labeled 1..n.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// RandomNetwork generates a connected random network with n nodes, m edges
// and shuffled ports, deterministically from the seed.
func RandomNetwork(n, m int, seed int64) (*Graph, error) {
	return graphgen.RandomConnected(n, m, rand.New(rand.NewSource(seed)))
}

// Report is the outcome of running one of the paper's constructions.
type Report struct {
	// OracleBits is the total advice size (the paper's measure).
	OracleBits int
	// Messages is the total number of transmissions.
	Messages int
	// Complete reports whether the run completed its task within the
	// construction's proven bound.
	Complete bool
	// Rounds is the logical completion time under the chosen schedule.
	Rounds int
}

// Wakeup runs the Theorem 2.1 construction on g: a spanning-tree oracle of
// n·ceil(log n) + O(n log log n) bits and a wakeup scheme using exactly n-1
// messages. The run is validated against the wakeup constraint (no node
// other than the source transmits before being woken).
func Wakeup(g *Graph, source NodeID) (Report, error) {
	return runPaper("wakeup", g, source)
}

// Broadcast runs the Theorem 3.1 construction on g: the light-spanning-tree
// oracle of O(n) bits and Scheme B, completing with at most 3(n-1) messages.
func Broadcast(g *Graph, source NodeID) (Report, error) {
	return runPaper("broadcast", g, source)
}

// runPaper runs the task's default catalog scheme (the paper's
// construction) through catalog.Run.Do, the same path as oraclesim,
// campaign units and oracled, under FIFO delivery and the catalog's
// message budget.
func runPaper(task string, g *Graph, source NodeID) (Report, error) {
	run, err := catalog.Resolve(task, "", "", "", 0)
	if err != nil {
		return Report{}, fmt.Errorf("oraclesize: %w", err)
	}
	done, err := run.Do(g, source)
	if err != nil {
		return Report{}, fmt.Errorf("oraclesize: %s %w", task, err)
	}
	return Report{
		OracleBits: done.Advice.SizeBits(),
		Messages:   done.Result.Messages,
		Complete:   done.Check == nil,
		Rounds:     done.Result.Rounds,
	}, nil
}

// WakeupAdvice exposes the Theorem 2.1 oracle on its own.
func WakeupAdvice(g *Graph, source NodeID) (Advice, error) {
	return wakeup.Oracle{}.Advise(g, source)
}

// BroadcastAdvice exposes the Theorem 3.1 oracle on its own.
func BroadcastAdvice(g *Graph, source NodeID) (Advice, error) {
	return broadcast.Oracle{}.Advise(g, source)
}

// OracleSizeBits reports the paper's size measure for an advice assignment.
func OracleSizeBits(a Advice) int { return a.SizeBits() }

// GossipAll runs the gossip extension (every node learns every node's
// label) with the tree oracle rooted at node 0: exactly 2(n-1) messages.
// Complete includes the per-node verification of the learned value sets.
func GossipAll(g *Graph) (Report, error) {
	return runPaper("gossip", g, 0)
}

// ExploreReport is the outcome of a mobile-agent exploration.
type ExploreReport struct {
	// OracleBits is the advice size (0 for the blind strategy).
	OracleBits int
	// Moves is the number of edge traversals.
	Moves int
	// Complete reports whether every node was visited.
	Complete bool
	// Home reports whether the agent returned to its start.
	Home bool
}

// ExploreBlind walks a zero-advice DFS over g from start: Θ(m) moves.
func ExploreBlind(g *Graph, start NodeID) (ExploreReport, error) {
	res, err := explore.Run(g, start, nil, explore.NewDFS(), 0)
	if err != nil {
		return ExploreReport{}, fmt.Errorf("oraclesize: blind exploration: %w", err)
	}
	return ExploreReport{Moves: res.Moves, Complete: res.Complete, Home: res.Home}, nil
}

// ExploreAdvised walks the Euler tour of a tree oracle: exactly 2(n-1)
// moves from Θ(n log n) advice bits.
func ExploreAdvised(g *Graph, start NodeID) (ExploreReport, error) {
	advice, err := explore.TreeOracle(g, start)
	if err != nil {
		return ExploreReport{}, fmt.Errorf("oraclesize: exploration oracle: %w", err)
	}
	res, err := explore.Run(g, start, advice, explore.NewTree(), 0)
	if err != nil {
		return ExploreReport{}, fmt.Errorf("oraclesize: advised exploration: %w", err)
	}
	var a sim.Advice = advice
	return ExploreReport{
		OracleBits: a.SizeBits(),
		Moves:      res.Moves,
		Complete:   res.Complete,
		Home:       res.Home,
	}, nil
}

// FullMapAdviceSize reports, for comparison, the size of the classical
// "every node knows the whole topology" assumption on g.
func FullMapAdviceSize(g *Graph) (int, error) {
	advice, err := oracle.FullMap{}.Advise(g, 0)
	if err != nil {
		return 0, err
	}
	return advice.SizeBits(), nil
}

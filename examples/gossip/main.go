// Gossip: the paper's conclusion conjectures that oracle size measures the
// difficulty of tasks beyond broadcast and wakeup. This example
// instantiates the conjecture for gossip — every node starts with a
// private value and must learn everyone's — using a Θ(n log n)-bit tree
// oracle and the classical convergecast/divergecast pair: exactly 2(n-1)
// messages, on any topology, under any schedule.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"oraclesize/internal/catalog"
	"oraclesize/internal/gossip"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
)

func main() {
	run, err := catalog.Resolve("gossip", "tree", "", "", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gossip with a spanning-tree oracle: 2(n-1) messages")
	fmt.Println()
	fmt.Printf("%-10s %6s %8s %12s %10s %8s %s\n",
		"family", "n", "m", "oracle-bits", "messages", "2(n-1)", "verified")

	builders := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"path", func() (*graph.Graph, error) { return graphgen.Path(128) }},
		{"star", func() (*graph.Graph, error) { return graphgen.Star(128) }},
		{"grid", func() (*graph.Graph, error) { return graphgen.Grid(12, 12) }},
		{"hypercube", func() (*graph.Graph, error) { return graphgen.Hypercube(7) }},
		{"torus", func() (*graph.Graph, error) { return graphgen.Torus(12, 12) }},
		{"random", func() (*graph.Graph, error) {
			return graphgen.RandomConnected(128, 512, rand.New(rand.NewSource(5)))
		}},
	}
	for _, b := range builders {
		g, err := b.build()
		if err != nil {
			log.Fatal(err)
		}
		// The gossip task's check verifies every node's value set.
		done, err := run.Do(g, 0)
		if err != nil {
			log.Fatal(err)
		}
		bound, _ := gossip.Bound(g.N())
		fmt.Printf("%-10s %6d %8d %12d %10d %8d %v\n",
			b.name, g.N(), g.M(), done.Advice.SizeBits(), done.Result.Messages, bound, done.Check == nil)
	}

	fmt.Println()
	fmt.Println("Values flow up the tree (convergecast), the root assembles the")
	fmt.Println("full set, and it flows back down — one message per tree edge per")
	fmt.Println("direction. The oracle is the wakeup oracle plus one parent port")
	fmt.Println("per node: gossip sits at the Θ(n log n) rung of the ladder.")
}

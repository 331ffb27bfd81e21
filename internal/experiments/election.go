package experiments

import (
	"fmt"

	"oraclesize/internal/catalog"
	"oraclesize/internal/election"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// E13Election applies the oracle-size measure to leader election (the first
// problem §1.1 names): a three-rung knowledge ladder — zero advice
// (max-label flooding, up to O(n·m) messages), one marked bit (O(m)
// announcement flood), and the tree oracle (exactly n-1 messages).
func E13Election(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Election extension (§1.1): the knowledge ladder for leader election",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "messages", "n-1", "valid",
		},
		Notes: []string{
			"extension beyond the paper: each rung of advice buys an order of message complexity",
		},
	}
	// Max-label flooding costs up to O(n·m) messages, so the sweep stays
	// below the sizes of the other experiments.
	families := []string{"cycle", "grid", "random-sparse", "complete"}
	sizes := cfg.sizes([]int{32, 128, 256}, []int{16})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(13000+int64(n)))
			if err != nil {
				return nil, err
			}
			leader := graph.NodeID(0)
			type rung struct {
				name   string
				algo   scheme.Algorithm
				advice sim.Advice
			}
			markAdvice, err := election.MarkOracle{}.Advise(g, leader)
			if err != nil {
				return nil, err
			}
			treeAdvice, err := election.TreeOracle{}.Advise(g, leader)
			if err != nil {
				return nil, err
			}
			rungs := []rung{
				{name: "max-flood", algo: election.MaxLabelFlood{}},
				{name: "marked-flood", algo: election.MarkedFlood{}, advice: markAdvice},
				{name: "marked-tree", algo: election.MarkedTree{}, advice: treeAdvice},
			}
			bound, _ := election.TreeBound(g.N())
			for _, r := range rungs {
				// Max-label flooding legitimately costs up to O(n·m)
				// messages (e.g. ~n²/2 on a cycle with adversarial label
				// order); give it the budget the theory predicts.
				opts := sim.Options{RetainNodes: true, MaxMessages: catalog.MessageBudget(g)}
				res, err := sim.Run(g, leader, r.algo, r.advice, opts)
				if err != nil {
					return nil, fmt.Errorf("E13 %s/%s: %w", fname, r.name, err)
				}
				valid := election.Verify(res.Nodes) == nil
				t.AddRow(fname, g.N(), g.M(), r.name, r.advice.SizeBits(),
					res.Messages, bound, boolMark(valid))
			}
		}
	}
	return t, nil
}

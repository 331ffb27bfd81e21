package experiments

import (
	"fmt"

	"oraclesize/internal/explore"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// E12Exploration extends the oracle-size program to mobile-agent graph
// exploration (the paper's conclusion and its reference [7]): zero advice
// forces a full-edge DFS, while the Theorem 2.1-style tree oracle cuts the
// walk to exactly 2(n-1) moves — the same knowledge/cost trade-off shape
// as the communication tasks, with moves in place of messages.
func E12Exploration(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Exploration extension (conclusion): advice bits vs agent moves",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "moves", "2(n-1)", "complete", "home",
		},
		Notes: []string{
			"extension beyond the paper: tree advice yields an Euler tour (2(n-1) moves); no advice costs Θ(m) moves",
		},
	}
	families := []string{"grid", "hypercube", "random-sparse", "random-dense", "complete"}
	sizes := cfg.sizes([]int{64, 256, 1024}, []int{32})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(12000+int64(n)))
			if err != nil {
				return nil, err
			}
			dfsRes, err := explore.Run(g, 0, nil, explore.NewDFS(), 0)
			if err != nil {
				return nil, fmt.Errorf("E12 %s dfs: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "dfs-no-advice", 0, dfsRes.Moves,
				2*(g.N()-1), boolMark(dfsRes.Complete), boolMark(dfsRes.Home))
			advice, err := explore.TreeOracle(g, 0)
			if err != nil {
				return nil, err
			}
			var a sim.Advice = advice
			treeRes, err := explore.Run(g, 0, advice, explore.NewTree(), 0)
			if err != nil {
				return nil, fmt.Errorf("E12 %s tree: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "tree-advice", a.SizeBits(), treeRes.Moves,
				2*(g.N()-1), boolMark(treeRes.Complete), boolMark(treeRes.Home))
		}
	}
	return t, nil
}

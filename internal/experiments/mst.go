package experiments

import (
	"fmt"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/mst"
	"oraclesize/internal/sim"
)

// E17MST applies the measure to minimum-spanning-tree construction (§1.2):
// the zero-advice distributed Borůvka pays O((m+n)·log n) messages over
// O(log n) phases, while a Θ(n log n)-bit oracle writes the (verified
// identical) tree with zero messages.
func E17MST(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "MST construction (§1.2): distributed Borůvka vs the silent oracle",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "phases", "messages", "matches-exact",
		},
		Notes: []string{
			"weights are the paper's w(e)=min port, totally ordered; both strategies must output the unique MST",
		},
	}
	families := []string{"grid", "random-sparse", "random-dense", "complete"}
	sizes := cfg.sizes([]int{64, 256}, []int{25})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(17000+int64(n)))
			if err != nil {
				return nil, err
			}
			want, err := mst.Exact(g)
			if err != nil {
				return nil, err
			}
			res, err := mst.Boruvka(g, nil)
			if err != nil {
				return nil, fmt.Errorf("E17 %s boruvka: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "boruvka", 0, res.Phases, res.Messages,
				boolMark(mst.SameEdgeSet(res.Edges, want)))
			advice, err := mst.Oracle{}.Advise(g, 0)
			if err != nil {
				return nil, err
			}
			run, err := sim.Run(g, 0, mst.Silent{}, advice, sim.Options{RetainNodes: true})
			if err != nil {
				return nil, err
			}
			valid := mst.VerifySilent(g, run.Nodes) == nil
			t.AddRow(fname, g.N(), g.M(), "oracle", advice.SizeBits(), 0, run.Messages, boolMark(valid))
		}
	}
	return t, nil
}

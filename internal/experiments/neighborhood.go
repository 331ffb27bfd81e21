package experiments

import (
	"fmt"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/neighborhood"
	"oraclesize/internal/sim"
)

// E20Neighborhood puts the traditional "know your neighborhood" assumption
// (§1.1's cited line of work) on the paper's quantitative scale: the
// radius-1 ball costs Θ(Σ deg·log n + Σ deg²) advice bits — orders of
// magnitude above the Theorem 2.1 oracle — and buys a locally computed
// sparsification that cuts flooding from ~2m messages toward ~2n on dense
// graphs, yet still cannot reach the oracle's exact n-1.
func E20Neighborhood(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Traditional neighborhood knowledge (§1.1): ball bits vs flood messages",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "messages", "complete",
		},
		Notes: []string{
			"the ball is structured knowledge (neighbors + their adjacencies); the paper's point is that unstructured advice achieves more with exponentially fewer bits",
		},
	}
	families := []string{"grid", "random-sparse", "random-dense", "complete", "wheel"}
	sizes := cfg.sizes([]int{64, 256}, []int{24})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(20000+int64(n)))
			if err != nil {
				return nil, err
			}
			// Rung 0: no knowledge, plain flooding.
			flood, err := do("wakeup", "flooding", g, 0)
			if err != nil {
				return nil, fmt.Errorf("E20 %s flooding: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "flooding", 0, flood.Result.Messages, boolMark(flood.Result.AllInformed))
			// Rung 1: radius-1 balls, locally sparsified flooding.
			ballAdvice, err := neighborhood.BallOracle{}.Advise(g, 0)
			if err != nil {
				return nil, err
			}
			ball, err := sim.Run(g, 0, neighborhood.SparseFlood{}, ballAdvice, sim.Options{EnforceWakeup: true})
			if err != nil {
				return nil, fmt.Errorf("E20 %s ball: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "radius-1-ball", ballAdvice.SizeBits(), ball.Messages, boolMark(ball.AllInformed))
			// Rung 2: the paper's unstructured oracle.
			tree, err := do("wakeup", "tree", g, 0)
			if err != nil {
				return nil, fmt.Errorf("E20 %s tree: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "thm2.1-oracle", tree.Advice.SizeBits(), tree.Result.Messages,
				boolMark(tree.Result.AllInformed))
		}
	}
	return t, nil
}

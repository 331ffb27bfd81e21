package experiments

import (
	"fmt"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/catalog"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// E19BroadcastTreeTradeoff completes the knowledge/time story for
// broadcast: Scheme B runs over any spanning tree, and the tree choice
// trades advice bits against completion rounds. The paper's light tree
// pins the oracle at O(n) bits but can be n deep (on K_n it degenerates to
// a chain); a BFS tree completes in ~eccentricity rounds but its edge
// weights are unconstrained, pushing the advice toward Θ(n log n) — the
// conclusion's conjectured trade-off, measured.
func E19BroadcastTreeTradeoff(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Broadcast tree trade-off: advice bits vs completion rounds (Scheme B)",
		Columns: []string{
			"family", "n", "tree", "advice-bits", "bits/n", "rounds", "messages", "complete",
		},
		Notes: []string{
			"Scheme B works over any spanning tree; the light tree minimizes bits (Thm 3.1), the BFS tree minimizes time",
		},
	}
	// The light tree is the catalog scheme's own oracle; the BFS tree's
	// advice feeds the same algorithm.
	run, err := catalog.Resolve("broadcast", "light-tree", "", "", 0)
	if err != nil {
		return nil, err
	}
	families := []string{"cycle", "grid", "random-sparse", "complete"}
	sizes := cfg.sizes([]int{64, 256, 1024}, []int{64})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(19000+int64(n)))
			if err != nil {
				return nil, err
			}
			light, err := judged(run.Do(g, 0))
			if err != nil {
				return nil, fmt.Errorf("E19 %s/light: %w", fname, err)
			}
			bfsAdvice, err := broadcast.Oracle{Tree: broadcast.TreeBFS}.Advise(g, 0)
			if err != nil {
				return nil, fmt.Errorf("E19 %s/bfs: %w", fname, err)
			}
			bfs, err := run.Execute(g, 0, bfsAdvice)
			if err != nil {
				return nil, fmt.Errorf("E19 %s/bfs: %w", fname, err)
			}
			for _, tr := range []struct {
				name   string
				advice sim.Advice
				res    *sim.Result
			}{{"light", light.Advice, light.Result}, {"bfs", bfsAdvice, bfs}} {
				t.AddRow(fname, g.N(), tr.name, tr.advice.SizeBits(),
					float64(tr.advice.SizeBits())/float64(g.N()),
					tr.res.Rounds, tr.res.Messages, boolMark(tr.res.AllInformed))
			}
		}
	}
	return t, nil
}

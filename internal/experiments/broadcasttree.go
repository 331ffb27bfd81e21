package experiments

import (
	"fmt"

	"oraclesize/internal/broadcast"
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
	trees := []struct {
		name string
		kind broadcast.TreeKind
	}{
		{"light", broadcast.TreeLight},
		{"bfs", broadcast.TreeBFS},
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
			for _, tr := range trees {
				advice, err := broadcast.Oracle{Tree: tr.kind}.Advise(g, 0)
				if err != nil {
					return nil, fmt.Errorf("E19 %s/%s: %w", fname, tr.name, err)
				}
				res, err := sim.Run(g, 0, broadcast.Algorithm{}, advice, sim.Options{})
				if err != nil {
					return nil, fmt.Errorf("E19 %s/%s: %w", fname, tr.name, err)
				}
				t.AddRow(fname, g.N(), tr.name, advice.SizeBits(),
					float64(advice.SizeBits())/float64(g.N()),
					res.Rounds, res.Messages, boolMark(res.AllInformed))
			}
		}
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"oraclesize/internal/election"
	"oraclesize/internal/graphgen"
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
			bound, _ := election.TreeBound(g.N())
			// The catalog's message budget admits max-label flooding's
			// O(n·m) messages (e.g. ~n²/2 on a cycle with adversarial
			// label order), and the election task's check verifies the
			// decisions of the retained automata.
			for _, r := range []struct{ name, scheme string }{
				{"max-flood", "max-label-flood"},
				{"marked-flood", "marked-flood"},
				{"marked-tree", "marked-tree"},
			} {
				done, err := do("election", r.scheme, g, 0)
				if err != nil {
					return nil, fmt.Errorf("E13 %s/%s: %w", fname, r.name, err)
				}
				t.AddRow(fname, g.N(), g.M(), r.name, done.Advice.SizeBits(),
					done.Result.Messages, bound, boolMark(done.Check == nil))
			}
		}
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
	"oraclesize/internal/spanner"
)

// E14Spanner applies the oracle-size lens to spanner construction (the
// last problem the conclusion names): with zero communication, O(n)
// advice bits let nodes locally output the light spanning tree (n-1 edges)
// instead of keeping all m edges; the stretch column prices the sparsity.
func E14Spanner(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Spanner extension (conclusion): advice bits vs edges kept (zero messages)",
		Columns: []string{
			"family", "n", "m", "selector", "advice-bits", "edges", "connected", "stretch",
		},
		Notes: []string{
			"extension beyond the paper: selection is purely local — the oracle replaces all communication",
		},
	}
	families := []string{"grid", "hypercube", "random-sparse", "random-dense", "complete"}
	sizes := cfg.sizes([]int{64, 256}, []int{25})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(14000+int64(n)))
			if err != nil {
				return nil, err
			}
			all, err := spanner.Build(g, nil, spanner.KeepAll{})
			if err != nil {
				return nil, fmt.Errorf("E14 %s keep-all: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "keep-all", 0, len(all.Edges),
				boolMark(all.Connected), all.Stretch)
			advice, err := spanner.Advice(g)
			if err != nil {
				return nil, err
			}
			tree, err := spanner.Build(g, advice, spanner.LightTree{})
			if err != nil {
				return nil, fmt.Errorf("E14 %s light-tree: %w", fname, err)
			}
			t.AddRow(fname, g.N(), g.M(), "light-tree", advice.SizeBits(), len(tree.Edges),
				boolMark(tree.Connected), tree.Stretch)
		}
	}
	return t, nil
}

// E15Bandwidth verifies the paper's §1.3 bounded-message claim as a
// measurement: the wakeup and broadcast constructions spend a constant
// number of bits per message, while gossip's convergecast payloads grow —
// the bits/message column separates the bounded from the unbounded.
func E15Bandwidth(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Bounded messages (§1.3): total message bits and per-node load",
		Columns: []string{
			"task", "n", "messages", "message-bits", "bits/msg", "max-node-sends",
		},
		Notes: []string{
			"paper: both upper bounds use only bounded-size messages; gossip (extension) is the contrast case",
		},
	}
	sizes := cfg.sizes([]int{64, 256, 1024}, []int{32})
	for _, n := range sizes {
		g, err := graphgen.RandomConnected(n, 3*n, cfg.rng(15000+int64(n)))
		if err != nil {
			return nil, err
		}
		for _, r := range []struct{ label, task, scheme string }{
			{"wakeup (Thm 2.1)", "wakeup", "tree"},
			{"broadcast (Thm 3.1)", "broadcast", "light-tree"},
			{"gossip (ext.)", "gossip", "tree"},
		} {
			done, err := do(r.task, r.scheme, g, 0)
			if err != nil {
				return nil, fmt.Errorf("E15 %s n=%d: %w", r.task, n, err)
			}
			addBandwidthRow(t, r.label, g.N(), done.Result)
		}
	}
	return t, nil
}

func addBandwidthRow(t *Table, task string, n int, res *sim.Result) {
	perMsg := 0.0
	if res.Messages > 0 {
		perMsg = float64(res.MessageBits) / float64(res.Messages)
	}
	t.AddRow(task, n, res.Messages, res.MessageBits, perMsg, res.MaxNodeSends)
}

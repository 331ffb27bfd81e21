package experiments

import (
	"fmt"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/broadcast"
	"oraclesize/internal/catalog"
	"oraclesize/internal/gossip"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// E9Gossip extends the oracle-size program to the paper's third named
// primitive (§1.2 lists gossip among the "typical distributed network
// problems" and the conclusion conjectures the measure generalizes): a
// Θ(n log n)-bit tree oracle supports gossip with exactly 2(n-1) messages.
func E9Gossip(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Gossip extension (conclusion): tree oracle, 2(n-1) messages",
		Columns: []string{
			"family", "n", "m", "oracle-bits", "up-msgs", "down-msgs",
			"messages", "2(n-1)", "all-values",
		},
		Notes: []string{
			"extension beyond the paper: conjectured in its conclusion; messages carry value sets (unbounded), unlike the dissemination tasks",
		},
	}
	families := []string{"path", "star", "grid", "random-sparse", "complete"}
	sizes := cfg.sizes([]int{16, 64, 256, 1024}, []int{16, 64})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(9000+int64(n)))
			if err != nil {
				return nil, err
			}
			// The gossip task's check verifies every node's value set.
			done, err := do("gossip", "tree", g, 0)
			if err != nil {
				return nil, fmt.Errorf("E9 %s n=%d: %w", fname, n, err)
			}
			res, nn := done.Result, g.N()
			bound, _ := gossip.Bound(nn)
			t.AddRow(
				fname, nn, g.M(), done.Advice.SizeBits(),
				res.ByKind[scheme.KindUp], res.ByKind[scheme.KindDown],
				res.Messages, bound, boolMark(done.Check == nil),
			)
		}
	}
	return t, nil
}

// E10TreeAblation probes the conclusion's knowledge/time trade-off
// question: Theorem 2.1 works with *any* spanning tree, but the choice
// changes the completion time. BFS trees give optimal depth; DFS trees can
// be n deep; the Claim 3.1 light tree trades depth for advice bits.
// Messages stay at exactly n-1 throughout — only knowledge layout and time
// move.
func E10TreeAblation(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Ablation: spanning-tree choice in the wakeup oracle (bits vs time)",
		Columns: []string{
			"family", "n", "tree", "oracle-bits", "rounds", "messages", "complete",
		},
		Notes: []string{
			"Thm 2.1 allows any spanning tree; rounds = tree depth under synchronous delivery; messages are always n-1",
		},
	}
	trees := []struct {
		name string
		kind wakeup.TreeKind
	}{
		{"bfs", wakeup.TreeBFS},
		{"dfs", wakeup.TreeDFS},
		{"light", wakeup.TreeLight},
	}
	// Every tree kind's advice feeds the catalog's wakeup algorithm.
	run, err := catalog.Resolve("wakeup", "tree", "", "", 0)
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
			g, err := fam.Generate(n, cfg.seed(10000+int64(n)))
			if err != nil {
				return nil, err
			}
			for _, tr := range trees {
				advice, err := wakeup.Oracle{Tree: tr.kind}.Advise(g, 0)
				if err != nil {
					return nil, fmt.Errorf("E10 %s/%s: %w", fname, tr.name, err)
				}
				res, err := run.Execute(g, 0, advice)
				if err != nil {
					return nil, fmt.Errorf("E10 %s/%s: %w", fname, tr.name, err)
				}
				t.AddRow(fname, g.N(), tr.name, advice.SizeBits(), res.Rounds,
					res.Messages, boolMark(res.AllInformed))
			}
		}
	}
	return t, nil
}

// E11CodecAblation sweeps the self-delimiting code used by the Theorem 3.1
// oracle. The paper's 8n constant depends on its doubled-bit code; Elias
// codes shave it, unary explodes on high-weight edges — the O(n) shape is
// codec-robust, the constant is not.
func E11CodecAblation(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Ablation: weight codec in the broadcast oracle",
		Columns: []string{
			"family", "n", "codec", "oracle-bits", "bits/n", "messages", "complete",
		},
		Notes: []string{
			"Claim 3.1 bounds Σ#2(w) <= 4n; each codec turns that into a different O(n) constant",
		},
	}
	families := []string{"grid", "hypercube", "complete", "random-dense"}
	sizes := cfg.sizes([]int{64, 256, 1024}, []int{64})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(11000+int64(n)))
			if err != nil {
				return nil, err
			}
			for _, codec := range bitstring.Codecs() {
				codec := codec
				advice, err := broadcast.Oracle{Codec: &codec}.Advise(g, 0)
				if err != nil {
					return nil, fmt.Errorf("E11 %s/%s: %w", fname, codec.Name, err)
				}
				res, err := sim.Run(g, 0, broadcast.Algorithm{Codec: &codec}, advice, sim.Options{})
				if err != nil {
					return nil, fmt.Errorf("E11 %s/%s: %w", fname, codec.Name, err)
				}
				t.AddRow(fname, g.N(), codec.Name, advice.SizeBits(),
					float64(advice.SizeBits())/float64(g.N()),
					res.Messages, boolMark(res.AllInformed))
			}
		}
	}
	return t, nil
}

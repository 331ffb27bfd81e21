package experiments

import (
	"fmt"
	"math"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/spantree"
	"oraclesize/internal/wakeup"
)

// E1WakeupUpper reproduces Theorem 2.1: across graph families, the wakeup
// oracle stays within n·ceil(log n) + O(n log log n) bits and the scheme
// wakes every node with exactly n-1 messages under wakeup legality.
func E1WakeupUpper(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Wakeup upper bound (Thm 2.1): oracle bits and message count",
		Columns: []string{
			"family", "n", "m", "oracle-bits", "n*ceil(log n)", "bits-ratio",
			"messages", "n-1", "complete", "legal",
		},
		Notes: []string{
			"paper: oracle size n log n + o(n log n); messages exactly n-1",
		},
	}
	families := []string{"path", "binary-tree", "grid", "hypercube", "random-sparse", "random-dense", "subdivided-complete"}
	sizes := cfg.sizes([]int{16, 64, 256, 1024, 4096}, []int{16, 64})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(int64(n)))
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", fname, n, err)
			}
			done, err := do("wakeup", "tree", g, 0)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", fname, n, err)
			}
			advice, res := done.Advice, done.Result
			nn := g.N()
			ref := nn * oracle.FieldWidth(nn)
			bound, _ := wakeup.Bound(nn)
			t.AddRow(
				fname, nn, g.M(), advice.SizeBits(), ref,
				float64(advice.SizeBits())/float64(ref),
				// A run that breaks the wakeup constraint fails in Do.
				res.Messages, bound, boolMark(res.AllInformed), boolMark(true),
			)
		}
	}
	return t, nil
}

// E3BroadcastUpper reproduces Theorem 3.1 and Claims 3.1/3.2: the light
// tree's contribution stays under 4n, the oracle under O(n) bits, and
// Scheme B completes with at most 3(n-1) messages under every scheduler.
func E3BroadcastUpper(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Broadcast upper bound (Thm 3.1): light tree, oracle bits, Scheme B messages",
		Columns: []string{
			"family", "n", "m", "contrib", "4n", "oracle-bits", "bits/n",
			"messages", "M-msgs", "hellos", "3(n-1)", "complete",
		},
		Notes: []string{
			"paper: Σ#2(w(e)) <= 4n (Claim 3.1); oracle O(n) bits; linear messages (Claim 3.2)",
		},
	}
	families := []string{"path", "grid", "hypercube", "random-sparse", "random-dense", "complete", "subdivided-complete"}
	sizes := cfg.sizes([]int{16, 64, 256, 1024}, []int{16, 64})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(3000+int64(n)))
			if err != nil {
				return nil, fmt.Errorf("E3 %s n=%d: %w", fname, n, err)
			}
			edges, err := spantree.Light(g)
			if err != nil {
				return nil, fmt.Errorf("E3 %s n=%d: %w", fname, n, err)
			}
			contrib := spantree.TotalContribution(edges)
			done, err := do("broadcast", "light-tree", g, 0)
			if err != nil {
				return nil, fmt.Errorf("E3 %s n=%d: %w", fname, n, err)
			}
			advice, res := done.Advice, done.Result
			nn := g.N()
			bound, _ := broadcast.Bound(nn)
			t.AddRow(
				fname, nn, g.M(), contrib, spantree.ContributionBound(nn), advice.SizeBits(),
				float64(advice.SizeBits())/float64(nn),
				res.Messages, res.ByKind[scheme.KindM], res.ByKind[scheme.KindHello],
				bound, boolMark(res.AllInformed),
			)
		}
	}
	return t, nil
}

// E5Separation is the headline experiment: the measured oracle sizes of the
// two constructions diverge by a Θ(log n) factor — wakeup needs strictly
// more knowledge than broadcast at equal (linear) message complexity.
func E5Separation(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Separation (headline): wakeup Θ(n log n) vs broadcast O(n) oracle bits",
		Columns: []string{
			"n", "m", "wakeup-bits", "bcast-bits", "ratio", "log2(n)",
			"wakeup-msgs", "bcast-msgs",
		},
		Notes: []string{
			"paper: ratio of minimum oracle sizes grows as Θ(log n)",
		},
	}
	sizes := cfg.sizes([]int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}, []int{16, 64, 256})
	for _, n := range sizes {
		g, err := graphgen.RandomConnected(n, 3*n, cfg.rng(5000+int64(n)))
		if err != nil {
			return nil, fmt.Errorf("E5 n=%d: %w", n, err)
		}
		w, err := do("wakeup", "tree", g, 0)
		if err != nil {
			return nil, fmt.Errorf("E5 n=%d: %w", n, err)
		}
		b, err := do("broadcast", "light-tree", g, 0)
		if err != nil {
			return nil, fmt.Errorf("E5 n=%d: %w", n, err)
		}
		wBits, bBits := w.Advice.SizeBits(), b.Advice.SizeBits()
		t.AddRow(
			n, g.M(), wBits, bBits, float64(wBits)/float64(bBits),
			math.Log2(float64(n)),
			w.Result.Messages, b.Result.Messages,
		)
	}
	return t, nil
}

// E8Baselines places classical knowledge assumptions on the paper's
// quantitative scale: zero advice (flooding), the paper's two oracles, and
// the full topology map.
func E8Baselines(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Knowledge/communication trade-off: advice bits vs messages",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "messages", "complete",
		},
		Notes: []string{
			"flooding: 0 bits, Θ(m) msgs; Thm 3.1: O(n) bits; Thm 2.1: Θ(n log n) bits; full map: Θ(n·m·log n) bits — all with linear messages except flooding",
		},
	}
	// Each strategy is a catalog scheme; the wakeup ones run under the
	// wakeup constraint.
	strategies := []struct{ name, task, scheme string }{
		{"flooding", "wakeup", "flooding"},
		{"thm3.1-broadcast", "broadcast", "light-tree"},
		{"thm2.1-wakeup", "wakeup", "tree"},
		{"full-map", "wakeup", "full-map"},
	}
	// The full-map algorithm re-decodes the whole topology at every node,
	// so the sweep stays modest: the point is the bit counts, not scale.
	families := []string{"random-sparse", "random-dense"}
	sizes := cfg.sizes([]int{64, 256}, []int{32})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			g, err := fam.Generate(n, cfg.seed(8000+int64(n)))
			if err != nil {
				return nil, err
			}
			for _, s := range strategies {
				done, err := do(s.task, s.scheme, g, 0)
				if err != nil {
					return nil, fmt.Errorf("E8 %s %s: %w", fname, s.name, err)
				}
				t.AddRow(fname, g.N(), g.M(), s.name, done.Advice.SizeBits(), done.Result.Messages,
					boolMark(done.Result.AllInformed))
			}
		}
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/counting"
	"oraclesize/internal/edgediscovery"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// E2aAdversaryGame reproduces Lemma 2.1 empirically: on fully enumerated
// edge-discovery families, every implemented scheme needs at least
// log2(|I|/|X|!) probes against the adversary.
func E2aAdversaryGame(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E2a",
		Title: "Edge-discovery adversary (Lemma 2.1): probes vs information bound",
		Columns: []string{
			"n", "|X|", "|I|", "bound", "scheme", "probes", "probes>=bound",
		},
		Notes: []string{
			"paper: worst-case message complexity >= log2(|I|/|X|!) (Lemma 2.1)",
		},
	}
	type gameCase struct{ n, k int }
	cases := []gameCase{{4, 1}, {4, 2}, {5, 1}, {5, 2}, {6, 1}}
	if !cfg.Quick {
		cases = append(cases, gameCase{5, 3}, gameCase{6, 2}, gameCase{7, 1})
	}
	for _, gc := range cases {
		fam, err := edgediscovery.Family(gc.n, gc.k, nil)
		if err != nil {
			return nil, err
		}
		bound := edgediscovery.LowerBound(len(fam), gc.k)
		schemes := []edgediscovery.Scheme{
			edgediscovery.SweepScheme{},
			&edgediscovery.RandomScheme{Seed: cfg.Seed + 1},
			&edgediscovery.GreedySplitScheme{Family: fam},
		}
		for _, s := range schemes {
			probes, err := edgediscovery.PlayAdversary(fam, s, 1<<20)
			if err != nil {
				return nil, fmt.Errorf("E2a n=%d k=%d %s: %w", gc.n, gc.k, s.Name(), err)
			}
			t.AddRow(gc.n, gc.k, len(fam), bound, s.Name(), probes, boolMark(float64(probes) >= bound))
		}
	}
	return t, nil
}

// E2cWakeupReduction runs the Theorem 2.2 reduction concretely: over a
// fully enumerated family of subdivided graphs G_{n,S} (all tuples S of k
// distinct edges), a wakeup algorithm whose advice is instance-independent
// (zero-advice flooding is the canonical example) must, in the worst case
// over the family, spend at least the Lemma 2.1 bound log2(|I|/|X|!)
// messages — because completing the wakeup discovers every hidden edge.
func E2cWakeupReduction(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E2c",
		Title: "Wakeup -> edge-discovery reduction: worst case over G_{n,S} families",
		Columns: []string{
			"n", "|S|", "|I|", "bound", "worst-msgs", "mean-msgs", "worst>=bound",
		},
		Notes: []string{
			"the wakeup algorithm (zero-advice flooding) sees identical advice on every instance, so Lemma 2.1 applies to it verbatim",
		},
	}
	type redCase struct{ n, k int }
	cases := []redCase{{4, 1}, {4, 2}, {5, 1}, {5, 2}}
	if !cfg.Quick {
		cases = append(cases, redCase{5, 3}, redCase{6, 1}, redCase{6, 2})
	}
	for _, rc := range cases {
		fam, err := edgediscovery.Family(rc.n, rc.k, nil)
		if err != nil {
			return nil, err
		}
		bound := edgediscovery.LowerBound(len(fam), rc.k)
		worst, total := 0, 0
		for _, in := range fam {
			g, err := graphgen.SubdividedComplete(in.N, in.X)
			if err != nil {
				return nil, fmt.Errorf("E2c n=%d k=%d: %w", rc.n, rc.k, err)
			}
			src, ok := g.NodeByLabel(1)
			if !ok {
				return nil, fmt.Errorf("E2c: source label missing")
			}
			done, err := do("wakeup", "flooding", g, src)
			if err != nil {
				return nil, fmt.Errorf("E2c n=%d k=%d: %w", rc.n, rc.k, err)
			}
			worst = max(worst, done.Result.Messages)
			total += done.Result.Messages
		}
		t.AddRow(rc.n, rc.k, len(fam), bound, worst,
			float64(total)/float64(len(fam)), boolMark(float64(worst) >= bound))
	}
	return t, nil
}

// E2bWakeupLower reproduces the Theorem 2.2 counting machinery: the forced
// message count for wakeup under an α·(2n)·log(2n)-bit oracle, exact at
// small n and analytic beyond, showing the asymptotic crossover and the
// Θ(n log n) growth.
func E2bWakeupLower(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E2b",
		Title: "Wakeup lower bound (Thm 2.2): forced messages vs oracle budget",
		Columns: []string{
			"n", "alpha", "q-bits", "log2P", "log2Q", "forced-msgs",
			"closed-form", "forced/(n·log n)", "mode",
		},
		Notes: []string{
			"paper: any oracle of size < (1/2)·n log n forces Ω(n log n) wakeup messages (asymptotic; negative entries are below the crossover)",
		},
	}
	exactNs := cfg.sizes([]int{64, 256, 1024}, []int{64})
	analyticExps := cfg.sizes([]int{14, 16, 20, 24, 30, 36}, []int{16, 20})
	alphas := []float64{0.125, 0.25, 0.4}
	if cfg.Quick {
		alphas = []float64{0.25}
	}
	for _, alpha := range alphas {
		for _, n := range exactNs {
			b := counting.WakeupForced(int64(n), alpha)
			t.AddRow(n, alpha, b.QBits, b.Log2P, b.Log2Q, b.ForcedMsgs, b.ClosedForm,
				ratioNLogN(b.ForcedMsgs, int64(n)), "exact")
		}
		for _, e := range analyticExps {
			n := int64(1) << uint(e)
			b := counting.WakeupForcedAnalytic(n, alpha)
			t.AddRow(fmt.Sprintf("2^%d", e), alpha, b.QBits, b.Log2P, b.Log2Q, b.ForcedMsgs,
				b.ClosedForm, ratioNLogN(b.ForcedMsgs, n), "analytic")
		}
	}
	return t, nil
}

func ratioNLogN(x float64, n int64) float64 {
	log := 0.0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	if log == 0 {
		return 0
	}
	return x / (float64(n) * log)
}

// E4aBudgetedBroadcast is the empirical face of Theorem 3.2: on the
// clique-gadget family G_{n,S,C}, restricting the broadcast oracle's bit
// budget blows the message count up from ~3n toward Θ(m).
func E4aBudgetedBroadcast(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4a",
		Title: "Budget-restricted broadcast on G_{n,S,C}: advice bits vs messages",
		Columns: []string{
			"n", "k", "nodes", "m", "budget-frac", "advice-bits", "messages",
			"msgs/3(N-1)", "complete",
		},
		Notes: []string{
			"paper (Thm 3.2): o(n) advice bits make linear-message broadcast impossible; the sweep shows the cost of every missing bit",
		},
	}
	type gadgetCase struct{ n, k int }
	cases := []gadgetCase{{64, 4}, {128, 4}, {256, 8}}
	if cfg.Quick {
		cases = []gadgetCase{{32, 4}}
	}
	fracs := []float64{0, 0.125, 0.25, 0.5, 0.75, 1}
	for _, gc := range cases {
		rng := cfg.rng(4000 + int64(gc.n))
		s, err := graphgen.RandomEdgeTuple(gc.n, gc.n/gc.k, rng)
		if err != nil {
			return nil, err
		}
		g, err := graphgen.CliqueGadget(gc.n, gc.k, s, graphgen.RandomGadgetPairs(gc.n/gc.k, gc.k, rng))
		if err != nil {
			return nil, err
		}
		src, ok := g.NodeByLabel(1)
		if !ok {
			return nil, fmt.Errorf("E4a: source label missing")
		}
		full, err := broadcast.Oracle{}.Advise(g, src)
		if err != nil {
			return nil, err
		}
		maxBudget := full.SizeBits() + g.N()
		for _, frac := range fracs {
			budget := int(frac * float64(maxBudget))
			advice, err := broadcast.BudgetedOracle{BudgetBits: budget}.Advise(g, src)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(g, src, broadcast.HybridAlgorithm{}, advice, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("E4a n=%d k=%d frac=%v: %w", gc.n, gc.k, frac, err)
			}
			nn := g.N()
			bound, _ := broadcast.Bound(nn)
			t.AddRow(
				gc.n, gc.k, nn, g.M(), frac, advice.SizeBits(), res.Messages,
				float64(res.Messages)/float64(bound), boolMark(res.AllInformed),
			)
		}
	}
	return t, nil
}

// E4bBroadcastLower reproduces the Theorem 3.2 / Claim 3.3 counting: with
// q = n/(2k) oracle bits on G_{n,k}, the forced message count crosses the
// contradiction threshold n(k-1)/8 once n is large enough.
func E4bBroadcastLower(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4b",
		Title: "Broadcast lower bound (Thm 3.2/Claim 3.3): forced messages vs threshold",
		Columns: []string{
			"n", "k", "q-bits", "log2P'", "log2Q", "forced-msgs", "threshold", "exceeds", "mode",
		},
		Notes: []string{
			"paper: forced >= (n/4k)·log n beats n(k-1)/8 for k <= sqrt(log n), n large (asymptotic)",
		},
	}
	type lbCase struct {
		n    int64
		k    int64
		mode string
	}
	cases := []lbCase{
		{1 << 8, 4, "exact"}, {1 << 10, 4, "exact"},
		{1 << 14, 4, "analytic"}, {1 << 16, 4, "analytic"},
		{1 << 20, 4, "analytic"}, {1 << 24, 4, "analytic"},
		{1 << 20, 8, "analytic"},
	}
	if cfg.Quick {
		cases = []lbCase{{1 << 8, 4, "exact"}, {1 << 16, 4, "analytic"}}
	}
	for _, c := range cases {
		var b counting.BroadcastBound
		var err error
		if c.mode == "exact" {
			b, err = counting.BroadcastForced(c.n, c.k)
		} else {
			b, err = counting.BroadcastForcedAnalytic(c.n, c.k)
		}
		if err != nil {
			return nil, fmt.Errorf("E4b n=%d k=%d: %w", c.n, c.k, err)
		}
		t.AddRow(c.n, c.k, b.QBits, b.Log2PPrime, b.Log2Q, b.ForcedMsgs, b.Threshold,
			boolMark(b.ForcedMsgs > b.Threshold), c.mode)
	}
	return t, nil
}

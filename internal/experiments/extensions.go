package experiments

import (
	"fmt"

	"oraclesize/internal/catalog"
	"oraclesize/internal/counting"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/wakeup"
)

// E6Subdivision probes the remark after Theorem 2.2: subdividing c·n edges
// instead of n pushes the lower-bound coefficient toward c/(c+1), i.e. the
// n log n upper bound is asymptotically optimal. The experiment measures
// the Theorem 2.1 oracle on c-fold subdivided complete graphs and reports
// bits per node against log N.
func E6Subdivision(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "c-fold subdivision (remark after Thm 2.2): oracle bits vs c",
		Columns: []string{
			"c", "base-n", "nodes", "hidden", "oracle-bits", "bits/(N·log N)",
			"messages", "N-1", "complete",
		},
		Notes: []string{
			"paper: with cn subdivided edges the oracle-size threshold rises to c/(c+1)·N log N; the upper bound stays n log n + o(n log n)",
		},
	}
	// Part 1: the counting side — the empirical critical oracle-budget
	// coefficient α* (largest α with a positive forced-message bound)
	// rises with c toward the remark's asymptotic threshold c/(c+1).
	counts := &Table{
		ID:      "E6",
		Title:   "c-fold subdivision counting: critical α vs the c/(c+1) threshold",
		Columns: []string{"c", "n", "critical-alpha", "c/(c+1)", "below-threshold"},
	}
	exps := cfg.sizes([]int{20, 30, 40}, []int{20})
	for _, c := range []int64{1, 2, 3, 4} {
		for _, e := range exps {
			n := int64(1) << uint(e)
			alpha, err := counting.CriticalAlpha(n, c)
			if err != nil {
				return nil, err
			}
			thr := float64(c) / float64(c+1)
			counts.AddRow(c, fmt.Sprintf("2^%d", e), alpha, thr, boolMark(alpha < thr))
		}
	}
	for _, row := range counts.Rows {
		t.Notes = append(t.Notes, fmt.Sprintf("counting: c=%s n=%s critical-α=%s (threshold %s)",
			row[0], row[1], row[2], row[3]))
	}

	// Part 2: the construction side — the Theorem 2.1 oracle keeps working
	// verbatim on every c-fold family at exactly N-1 messages.
	bases := cfg.sizes([]int{32, 64, 128}, []int{16})
	for _, c := range []int{1, 2, 3, 4} {
		for _, base := range bases {
			maxHidden := base * (base - 1) / 2
			hidden := c * base
			if hidden > maxHidden {
				continue
			}
			rng := cfg.rng(6000 + int64(c*100000+base))
			s, err := graphgen.RandomEdgeTuple(base, hidden, rng)
			if err != nil {
				return nil, err
			}
			g, err := graphgen.SubdividedComplete(base, s)
			if err != nil {
				return nil, err
			}
			src, ok := g.NodeByLabel(1)
			if !ok {
				return nil, fmt.Errorf("E6: source label missing")
			}
			done, err := do("wakeup", "tree", g, src)
			if err != nil {
				return nil, fmt.Errorf("E6 c=%d base=%d: %w", c, base, err)
			}
			advice, res := done.Advice, done.Result
			nn := g.N()
			logN := float64(oracle.FieldWidth(nn))
			bound, _ := wakeup.Bound(nn)
			t.AddRow(
				c, base, nn, hidden, advice.SizeBits(),
				float64(advice.SizeBits())/(float64(nn)*logN),
				res.Messages, bound, boolMark(res.AllInformed),
			)
		}
	}
	return t, nil
}

// E7Asynchrony stresses the paper's "totally asynchronous" claim: the
// Theorem 2.1 wakeup and Theorem 3.1 broadcast run to completion within
// their message bounds under adversarial event orderings and under the
// concurrent goroutine runtime.
func E7Asynchrony(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Asynchrony stress: schedulers × engines, completions and bounds",
		Columns: []string{
			"algorithm", "engine", "runs", "completions", "max-msgs", "bound", "within",
		},
		Notes: []string{
			"paper: both upper bounds hold for totally asynchronous communication",
		},
	}
	n := 64
	trials := 16
	if cfg.Quick {
		n, trials = 32, 4
	}
	g, err := graphgen.RandomConnected(n, 3*n, cfg.rng(7000))
	if err != nil {
		return nil, err
	}
	// Every delivery order the catalog registers under the queue engine,
	// then real goroutines, which ignore the scheduler name; the
	// randomized schedulers draw trial i's order from Seed+i.
	for _, s := range []struct{ name, task string }{
		{"thm2.1-wakeup", "wakeup"},
		{"thm3.1-schemeB", "broadcast"},
	} {
		for _, order := range append(catalog.SchedulerNames(), catalog.EngineGoroutines) {
			engine := catalog.EngineQueue
			if order == catalog.EngineGoroutines {
				engine = order
			}
			run, err := catalog.Resolve(s.task, "", engine, order, 0)
			if err != nil {
				return nil, err
			}
			bound, _ := run.Scheme.Bound(g.N())
			completions, maxMsgs := 0, 0
			for i := 0; i < trials; i++ {
				run.Seed = cfg.Seed + int64(i)
				done, err := judged(run.Do(g, 0))
				if err != nil {
					return nil, fmt.Errorf("E7 %s/%s: %w", s.name, order, err)
				}
				if done.Result.AllInformed {
					completions++
				}
				maxMsgs = max(maxMsgs, done.Result.Messages)
			}
			t.AddRow(s.name, order, trials, completions, maxMsgs, bound,
				boolMark(maxMsgs <= bound))
		}
	}
	return t, nil
}

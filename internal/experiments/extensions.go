package experiments

import (
	"fmt"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/counting"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/sim"
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
			advice, err := wakeup.Oracle{}.Advise(g, src)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(g, src, wakeup.Algorithm{}, advice, sim.Options{EnforceWakeup: true})
			if err != nil {
				return nil, err
			}
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
	wAdvice, err := wakeup.Oracle{}.Advise(g, 0)
	if err != nil {
		return nil, err
	}
	bAdvice, err := broadcast.Oracle{}.Advise(g, 0)
	if err != nil {
		return nil, err
	}

	type run struct {
		algoName string
		engine   string
		exec     func(seed int64) (*sim.Result, error)
		bound    int
		legal    bool
	}
	runs := []run{
		{
			algoName: "thm2.1-wakeup", engine: "fifo",
			exec: func(int64) (*sim.Result, error) {
				return sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{Scheduler: sim.NewFIFO(), EnforceWakeup: true})
			},
			bound: g.N() - 1, legal: true,
		},
		{
			algoName: "thm2.1-wakeup", engine: "lifo",
			exec: func(int64) (*sim.Result, error) {
				return sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{Scheduler: sim.NewLIFO(), EnforceWakeup: true})
			},
			bound: g.N() - 1, legal: true,
		},
		{
			algoName: "thm2.1-wakeup", engine: "random",
			exec: func(seed int64) (*sim.Result, error) {
				return sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{Scheduler: sim.NewRandom(seed), EnforceWakeup: true})
			},
			bound: g.N() - 1, legal: true,
		},
		{
			algoName: "thm2.1-wakeup", engine: "delay",
			exec: func(seed int64) (*sim.Result, error) {
				return sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{Scheduler: sim.NewDelay(seed, 16), EnforceWakeup: true})
			},
			bound: g.N() - 1, legal: true,
		},
		{
			algoName: "thm2.1-wakeup", engine: "goroutines",
			exec: func(int64) (*sim.Result, error) {
				return sim.RunConcurrent(g, 0, wakeup.Algorithm{}, wAdvice, 0)
			},
			bound: g.N() - 1, legal: true,
		},
		{
			algoName: "thm3.1-schemeB", engine: "fifo",
			exec: func(int64) (*sim.Result, error) {
				return sim.Run(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{Scheduler: sim.NewFIFO()})
			},
			bound: 3 * (g.N() - 1),
		},
		{
			algoName: "thm3.1-schemeB", engine: "lifo",
			exec: func(int64) (*sim.Result, error) {
				return sim.Run(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{Scheduler: sim.NewLIFO()})
			},
			bound: 3 * (g.N() - 1),
		},
		{
			algoName: "thm3.1-schemeB", engine: "random",
			exec: func(seed int64) (*sim.Result, error) {
				return sim.Run(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{Scheduler: sim.NewRandom(seed)})
			},
			bound: 3 * (g.N() - 1),
		},
		{
			algoName: "thm3.1-schemeB", engine: "delay",
			exec: func(seed int64) (*sim.Result, error) {
				return sim.Run(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{Scheduler: sim.NewDelay(seed, 16)})
			},
			bound: 3 * (g.N() - 1),
		},
		{
			algoName: "thm3.1-schemeB", engine: "goroutines",
			exec: func(int64) (*sim.Result, error) {
				return sim.RunConcurrent(g, 0, broadcast.Algorithm{}, bAdvice, 0)
			},
			bound: 3 * (g.N() - 1),
		},
	}
	for _, r := range runs {
		completions := 0
		maxMsgs := 0
		for i := 0; i < trials; i++ {
			res, err := r.exec(cfg.Seed + int64(i))
			if err != nil {
				return nil, fmt.Errorf("E7 %s/%s: %w", r.algoName, r.engine, err)
			}
			if res.AllInformed {
				completions++
			}
			if res.Messages > maxMsgs {
				maxMsgs = res.Messages
			}
		}
		t.AddRow(r.algoName, r.engine, trials, completions, maxMsgs, r.bound,
			boolMark(maxMsgs <= r.bound))
	}
	return t, nil
}

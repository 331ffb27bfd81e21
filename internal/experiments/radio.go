package experiments

import (
	"fmt"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/radio"
	"oraclesize/internal/sim"
)

// E18Radio quantifies §1.1's radio-network discussion on the oracle-size
// scale: broadcast *time* in the collision model as a function of advice.
// Label-plus-n knowledge forces a slot-per-label round-robin (Θ(n·D)
// rounds); full-knowledge schedules collapse the time to ~n (sequential)
// and toward O(D·Δ²) (layered), with zero collisions throughout. The
// strategies are deliberately simple stand-ins for the cited
// O(D + log² n) constructions — the *gap*, not the optimum, is the point.
func E18Radio(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Radio broadcast time (§1.1 context): advice bits vs rounds",
		Columns: []string{
			"family", "n", "m", "strategy", "advice-bits", "rounds", "transmissions", "collisions", "complete",
		},
		Notes: []string{
			"paper cites O(D+log^2 n) rounds with full knowledge vs Ω(n log D) with identity only; these simple schedules exhibit the same knowledge/time gap",
		},
	}
	families := []string{"path", "grid", "random-sparse", "star"}
	sizes := cfg.sizes([]int{64, 256}, []int{25})
	for _, fname := range families {
		fam, err := graphgen.FamilyByName(fname)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			base, err := fam.Generate(n, cfg.seed(18000+int64(n)))
			if err != nil {
				return nil, err
			}
			// Shuffle labels: the round-robin schedule is accidentally
			// optimal when labels happen to be sorted along the paths.
			g, err := graphgen.ShuffleLabels(base, cfg.rng(18500+int64(n)))
			if err != nil {
				return nil, err
			}
			type strat struct {
				name   string
				advice sim.Advice
				proto  radio.Protocol
			}
			seqAdvice, err := radio.SequentialAdvice(g, 0)
			if err != nil {
				return nil, err
			}
			layAdvice, err := radio.LayeredAdvice(g, 0)
			if err != nil {
				return nil, err
			}
			strats := []strat{
				{name: "round-robin", advice: radio.RoundRobinAdvice(g), proto: radio.RoundRobin{}},
				{name: "scheduled-seq", advice: seqAdvice, proto: radio.ScheduledSequential()},
				{name: "scheduled-layered", advice: layAdvice, proto: radio.ScheduledLayered()},
			}
			for _, s := range strats {
				res, err := radio.Run(g, 0, s.advice, s.proto, 0)
				if err != nil {
					return nil, fmt.Errorf("E18 %s/%s: %w", fname, s.name, err)
				}
				t.AddRow(fname, g.N(), g.M(), s.name, s.advice.SizeBits(),
					res.Rounds, res.Transmissions, res.Collisions, boolMark(res.Complete))
			}
		}
	}
	return t, nil
}

package campaign

import (
	"fmt"
	"time"

	"oraclesize/internal/catalog"
	"oraclesize/internal/experiments"
	"oraclesize/internal/graphgen"
)

// taskByName resolves a task through the shared catalog registry, the same
// source of truth oraclesim and oracled use.
func taskByName(name string) (catalog.Task, error) {
	td, err := catalog.TaskByName(name)
	if err != nil {
		return catalog.Task{}, fmt.Errorf("campaign: %w", err)
	}
	return td, nil
}

// runUnit executes one unit and returns its records (one for task units,
// one per table row for experiment units). Task units draw their graph
// from cache; a nil cache generates it afresh.
func runUnit(s *Spec, specHash string, u Unit, cache *Cache) ([]Record, error) {
	switch u.Kind {
	case KindTask:
		rec, err := runTaskUnit(s, specHash, u, cache)
		if err != nil {
			return nil, err
		}
		return []Record{rec}, nil
	case KindExperiment:
		return runExperimentUnit(s, specHash, u)
	default:
		return nil, fmt.Errorf("campaign: unknown unit kind %q", u.Kind)
	}
}

func runTaskUnit(s *Spec, specHash string, u Unit, cache *Cache) (Record, error) {
	run, err := catalog.Resolve(u.Task, u.Scheme, "", "", u.Seed)
	if err != nil {
		return Record{}, fmt.Errorf("campaign: %w", err)
	}
	run.MaxMessages = s.MaxMessages
	fam, err := graphgen.FamilyByName(u.Family)
	if err != nil {
		return Record{}, err
	}
	g, err := cache.Graph(fam, u.N, u.InstanceSeed)
	if err != nil {
		return Record{}, fmt.Errorf("campaign: generating %s n=%d: %w", u.Family, u.N, err)
	}
	advice, err := run.Scheme.NewOracle(0).Advise(g, 0)
	if err != nil {
		return Record{}, fmt.Errorf("campaign: advising %s/%s: %w", u.Task, u.Scheme, err)
	}
	start := time.Now()
	res, err := run.Execute(g, 0, advice)
	if err != nil {
		return Record{}, fmt.Errorf("campaign: running %s: %w", u.Key(), err)
	}
	return Record{
		SpecHash:    specHash,
		Unit:        u.Key(),
		Kind:        KindTask,
		Seed:        u.Seed,
		Trial:       u.Trial,
		Task:        u.Task,
		Scheme:      u.Scheme,
		Family:      u.Family,
		N:           u.N,
		Nodes:       g.N(),
		Edges:       g.M(),
		AdviceBits:  advice.SizeBits(),
		Messages:    res.Messages,
		MessageBits: res.MessageBits,
		Rounds:      res.Rounds,
		Complete:    run.Task.Check(res) == nil,
		WallNS:      time.Since(start).Nanoseconds(),
	}, nil
}

func runExperimentUnit(s *Spec, specHash string, u Unit) ([]Record, error) {
	r, err := experiments.ByID(u.Experiment)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tb, err := r.Run(experiments.Config{Seed: u.Seed, Quick: s.Quick})
	if err != nil {
		return nil, fmt.Errorf("campaign: experiment %s: %w", u.Experiment, err)
	}
	wall := time.Since(start).Nanoseconds()
	rows := tb.RowRecords()
	recs := make([]Record, len(rows))
	for i, rr := range rows {
		recs[i] = Record{
			SpecHash:   specHash,
			Unit:       u.Key(),
			Kind:       KindExperiment,
			Seed:       u.Seed,
			Trial:      u.Trial,
			Experiment: u.Experiment,
			Row:        i,
			Columns:    tb.Columns,
			Cells:      cellTexts(tb.Records[i]),
			Labels:     rr.Labels,
			Values:     rr.Values,
			Complete:   true,
			WallNS:     wall, // whole-table wall time, repeated on each row
		}
	}
	return recs, nil
}

func cellTexts(cells []experiments.Cell) []string {
	texts := make([]string, len(cells))
	for i, c := range cells {
		texts[i] = c.Text
	}
	return texts
}

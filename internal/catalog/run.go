package catalog

import (
	"fmt"
	"time"

	"oraclesize/internal/graph"
	"oraclesize/internal/sim"
)

// Engine names accepted by Resolve.
const (
	// EngineQueue is the deterministic event-queue engine (sim.Run); the
	// run's scheduler orders its deliveries.
	EngineQueue = "queue"
	// EngineGoroutines runs one goroutine per node (sim.RunConcurrent)
	// under the Go scheduler's real interleaving.
	EngineGoroutines = "goroutines"
)

// Run is one resolved simulation: a task, one of its schemes, an engine
// and, for the queue engine, a scheduler, every name checked by Resolve.
// Do is the one path from a catalog scheme to a judged result; oraclesim,
// campaign units, oracled's /v1/run, the root package's runners and the
// experiments all take it.
type Run struct {
	Task   Task
	Scheme Scheme
	// Engine is EngineQueue or EngineGoroutines.
	Engine string
	// Scheduler is the canonical name of the queue engine's delivery
	// order; it is empty for the goroutines engine, which has none.
	Scheduler string
	// Seed drives the randomized schedulers.
	Seed int64
	// MaxMessages caps the run's sends; 0 selects MessageBudget(g).
	MaxMessages int
}

// Resolve checks every name of a run before any work is done. An empty
// scheme, engine or scheduler selects the task's default scheme, the
// queue engine and FIFO delivery; schemes resolve by canonical name or
// alias. Every task runs on both engines; the goroutines engine ignores
// the scheduler name.
func Resolve(task, scheme, engine, scheduler string, seed int64) (Run, error) {
	td, err := TaskByName(task)
	if err != nil {
		return Run{}, err
	}
	r := Run{Task: td, Scheme: td.DefaultScheme(), Engine: engine, Seed: seed}
	if scheme != "" {
		if r.Scheme, err = td.SchemeByName(scheme); err != nil {
			return Run{}, err
		}
	}
	switch engine {
	case "", EngineQueue:
		r.Engine, r.Scheduler = EngineQueue, scheduler
		if r.Scheduler == "" {
			r.Scheduler = "fifo"
		}
		if err := checkScheduler(r.Scheduler); err != nil {
			return Run{}, err
		}
	case EngineGoroutines:
	default:
		return Run{}, fmt.Errorf("catalog: unknown engine %q (have %s | %s)", engine, EngineQueue, EngineGoroutines)
	}
	return r, nil
}

// Execute simulates the run on g from src under advice. It builds one
// sim.Options for both engines: EnforceWakeup and RetainNodes from the
// task, and MaxMessages, with a zero MaxMessages turned into
// MessageBudget(g). The queue engine also gets the run's scheduler unless
// it is FIFO (the pooled engine's own queue, which costs no allocation).
func (r Run) Execute(g *graph.Graph, src graph.NodeID, advice sim.Advice) (*sim.Result, error) {
	opts := sim.Options{
		EnforceWakeup: r.Task.EnforceWakeup,
		RetainNodes:   r.Task.NeedsNodes,
		MaxMessages:   r.MaxMessages,
	}
	if opts.MaxMessages == 0 {
		opts.MaxMessages = MessageBudget(g)
	}
	if r.Engine == EngineGoroutines {
		return sim.RunConcurrent(g, src, r.Scheme.Algo, advice, opts)
	}
	if r.Scheduler != "fifo" {
		factory, err := schedulerFactory(r.Scheduler, r.Seed)
		if err != nil {
			return nil, err
		}
		opts.Scheduler = factory()
	}
	return sim.Run(g, src, r.Scheme.Algo, advice, opts)
}

// Outcome is one judged run of a catalog scheme.
type Outcome struct {
	// Advice is the scheme's advice for the run's source.
	Advice sim.Advice
	// Result summarizes the simulation.
	Result *sim.Result
	// Wall is the simulation's wall time; building the advice is not in it.
	Wall time.Duration
	// Check is nil only for a run that completed its task within its
	// scheme's bound.
	Check error
}

// Do builds the scheme's oracle for src, advises, simulates through
// Execute and judges the run: first the task's completion check, then
// CheckBound. Failing to advise or to simulate is an error, prefixed
// "advising: " or "run: "; a run that finished but fails its judgement
// reports it in Outcome.Check.
func (r Run) Do(g *graph.Graph, src graph.NodeID) (Outcome, error) {
	advice, err := r.Scheme.NewOracle(src).Advise(g, src)
	if err != nil {
		return Outcome{}, fmt.Errorf("advising: %w", err)
	}
	start := time.Now()
	res, err := r.Execute(g, src, advice)
	wall := time.Since(start)
	if err != nil {
		return Outcome{}, fmt.Errorf("run: %w", err)
	}
	check := r.Task.Check(res)
	if check == nil {
		check = r.CheckBound(g.N(), res.Messages, advice.SizeBits())
	}
	return Outcome{Advice: advice, Result: res, Wall: wall, Check: check}, nil
}

// CheckBound holds a run on n generated nodes that sent messages under
// adviceBits bits of advice to its scheme's Bound; a baseline, which no
// theorem bounds, always passes. The error names the bound.
func (r Run) CheckBound(n, messages, adviceBits int) error {
	if r.Scheme.Bound == nil {
		return nil
	}
	maxMessages, maxBits := r.Scheme.Bound(n)
	switch {
	case messages > maxMessages:
		return fmt.Errorf("%d messages exceed the %s/%s bound %d at n=%d",
			messages, r.Task.Name, r.Scheme.Name, maxMessages, n)
	case adviceBits > maxBits:
		return fmt.Errorf("%d advice bits exceed the %s/%s bound %d at n=%d",
			adviceBits, r.Task.Name, r.Scheme.Name, maxBits, n)
	}
	return nil
}

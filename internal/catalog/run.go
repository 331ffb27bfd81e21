package catalog

import (
	"fmt"

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
// Execute is the one path from a catalog scheme to the simulator; the
// oraclesim CLI, campaign units and oracled's /v1/run all take it.
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
// alias. The goroutines engine ignores the scheduler name, and is refused
// for tasks that need node states (election), which only the queue
// engine retains.
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
		if _, err := schedulerFactory(r.Scheduler, seed); err != nil {
			return Run{}, err
		}
	case EngineGoroutines:
		if td.NeedsNodes {
			return Run{}, fmt.Errorf("catalog: %s verification needs the %s engine", td.Name, EngineQueue)
		}
	default:
		return Run{}, fmt.Errorf("catalog: unknown engine %q (have %s | %s)", engine, EngineQueue, EngineGoroutines)
	}
	return r, nil
}

// Execute simulates the run on g from src under advice. It picks the
// engine, builds the scheduler unless it is FIFO (the pooled engine's own
// queue, which costs no allocation), sets EnforceWakeup and RetainNodes
// from the task, and turns a zero MaxMessages into MessageBudget(g).
func (r Run) Execute(g *graph.Graph, src graph.NodeID, advice sim.Advice) (*sim.Result, error) {
	budget := r.MaxMessages
	if budget == 0 {
		budget = MessageBudget(g)
	}
	if r.Engine == EngineGoroutines {
		return sim.RunConcurrent(g, src, r.Scheme.Algo, advice, budget)
	}
	opts := sim.Options{
		EnforceWakeup: r.Task.EnforceWakeup,
		RetainNodes:   r.Task.NeedsNodes,
		MaxMessages:   budget,
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

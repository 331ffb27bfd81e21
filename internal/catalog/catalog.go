// Package catalog is the single source of truth for the names that select
// this repository's moving parts: distributed tasks, their oracle/algorithm
// scheme pairings, graph families, delivery schedulers and engines. The
// CLIs (oraclesim, campaign) and the oracled service all resolve
// user-facing names through this registry, so one name means the same
// configuration everywhere — a spec written for the campaign CLI selects
// the exact schemes the HTTP API serves.
//
// It also owns the one path from a scheme to a judged result. Resolve
// checks a run's task, scheme, engine and scheduler names before any work
// is done, and Run.Do builds the scheme's advice, simulates and judges the
// run: the task's completion check, then the scheme's bound. oraclesim,
// campaign units, oracled's /v1/run, the root package's runners and every
// experiment run of a catalog scheme go through Do. Its simulation step,
// Run.Execute, alone picks the engine, builds the scheduler, applies the
// task's wakeup constraint and node retention, and fills in the default
// message budget; experiments that feed a scheme's algorithm a variant
// oracle's advice call it directly.
//
// Each scheme a theorem covers lists its proven bound (Scheme.Bound): the
// construction packages write every formula once, Do holds every run to
// it, and `campaign validate` holds artifact records to it through
// Run.CheckBound.
//
// Scheme names come in two historical dialects: campaign records use
// construction names ("tree", "light-tree", "flooding") while oraclesim's
// -oracle flag used knowledge names ("paper", "none", "full-map", "mark").
// The catalog treats the construction names as canonical and registers the
// knowledge names as aliases, so both keep resolving.
package catalog

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/election"
	"oraclesize/internal/gossip"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// Scheme pairs an oracle with the algorithm that consumes its advice, under
// the names users select it by.
type Scheme struct {
	// Name is the canonical scheme name; campaign records carry it.
	Name string
	// Aliases are alternate names accepted by SchemeByName.
	Aliases []string
	// NewOracle builds the oracle for a run from the given source. Most
	// oracles ignore the source; gossip roots its convergecast tree there.
	NewOracle func(source graph.NodeID) oracle.Oracle
	// Algo is the node-automaton algorithm consuming the advice.
	Algo scheme.Algorithm
	// Bound is the scheme's proven cost on n generated nodes: a run sends
	// at most messages and NewOracle's advice holds at most adviceBits
	// bits. It is nil for the baselines, which no theorem bounds.
	Bound func(n int) (messages, adviceBits int)
}

// Task is one distributed task: its legality constraint, its completion
// criterion, and the registered schemes that solve it.
type Task struct {
	// Name is the task name ("wakeup", "broadcast", "gossip", "election").
	Name string
	// EnforceWakeup makes runs fail if a non-source node transmits before
	// its first delivery — the defining constraint of wakeup schemes.
	EnforceWakeup bool
	// NeedsNodes marks tasks whose completion check inspects the retained
	// automata; runs must set sim.Options.RetainNodes (election decisions
	// and the value sets gossip collects live in the final node states).
	NeedsNodes bool
	// Schemes lists the registered pairings, first is the paper's default.
	Schemes []Scheme

	check func(res *sim.Result) error
}

// Check reports whether a finished run completed the task: dissemination
// tasks require every node informed; election requires a valid unanimous
// decision among the retained automata.
func (t Task) Check(res *sim.Result) error {
	if t.check == nil {
		return fmt.Errorf("catalog: task %q has no completion check", t.Name)
	}
	return t.check(res)
}

// SchemeNames lists the task's canonical scheme names in registry order.
func (t Task) SchemeNames() []string {
	names := make([]string, len(t.Schemes))
	for i, sc := range t.Schemes {
		names[i] = sc.Name
	}
	return names
}

// SchemeByName resolves a canonical scheme name or one of its aliases.
func (t Task) SchemeByName(name string) (Scheme, error) {
	for _, sc := range t.Schemes {
		if sc.Name == name {
			return sc, nil
		}
		for _, a := range sc.Aliases {
			if a == name {
				return sc, nil
			}
		}
	}
	return Scheme{}, fmt.Errorf("catalog: task %q has no scheme %q (have %s)",
		t.Name, name, strings.Join(t.SchemeNames(), " | "))
}

// DefaultScheme returns the task's first registered scheme — the paper's
// construction where one exists.
func (t Task) DefaultScheme() Scheme { return t.Schemes[0] }

func allInformed(res *sim.Result) error {
	if !res.AllInformed {
		return fmt.Errorf("catalog: dissemination incomplete")
	}
	return nil
}

// fixedOracle adapts a source-independent oracle to the NewOracle shape.
func fixedOracle(o oracle.Oracle) func(graph.NodeID) oracle.Oracle {
	return func(graph.NodeID) oracle.Oracle { return o }
}

// tasks is the registry TaskByName and Resolve read, built once; the Task
// values they return share its Schemes slices, which nothing writes.
var tasks = registry()

// Tasks returns the registered tasks. The slice and its entries are fresh
// on every call; callers may reorder or filter freely.
func Tasks() []Task { return registry() }

func registry() []Task {
	return []Task{
		{
			Name:          "wakeup",
			EnforceWakeup: true,
			check:         allInformed,
			Schemes: []Scheme{
				{Name: "tree", Aliases: []string{"paper"},
					NewOracle: fixedOracle(wakeup.Oracle{}), Algo: wakeup.Algorithm{},
					Bound: wakeup.Bound},
				{Name: "flooding", Aliases: []string{"none"},
					NewOracle: fixedOracle(oracle.Empty{}), Algo: wakeup.Flooding{}},
				{Name: "full-map",
					NewOracle: fixedOracle(oracle.FullMap{}), Algo: wakeup.FullMapAlgorithm{}},
			},
		},
		{
			Name:  "broadcast",
			check: allInformed,
			Schemes: []Scheme{
				{Name: "light-tree", Aliases: []string{"paper"},
					NewOracle: fixedOracle(broadcast.Oracle{}), Algo: broadcast.Algorithm{},
					Bound: broadcast.Bound},
				{Name: "flooding", Aliases: []string{"none"},
					NewOracle: fixedOracle(oracle.Empty{}), Algo: broadcast.Flooding{}},
				{Name: "full-map",
					NewOracle: fixedOracle(oracle.FullMap{}), Algo: wakeup.FullMapAlgorithm{}},
			},
		},
		{
			Name:       "gossip",
			NeedsNodes: true,
			check: func(res *sim.Result) error {
				return gossip.Verify(res.Nodes)
			},
			Schemes: []Scheme{
				{Name: "tree", Aliases: []string{"paper"},
					NewOracle: func(source graph.NodeID) oracle.Oracle { return gossip.Oracle{Root: source} },
					Algo:      gossip.Algorithm{},
					Bound:     gossip.Bound},
			},
		},
		{
			Name:       "election",
			NeedsNodes: true,
			check: func(res *sim.Result) error {
				return election.Verify(res.Nodes)
			},
			Schemes: []Scheme{
				{Name: "marked-tree", Aliases: []string{"paper"},
					NewOracle: fixedOracle(election.TreeOracle{}), Algo: election.MarkedTree{},
					Bound: election.TreeBound},
				{Name: "max-label-flood", Aliases: []string{"none", "flooding"},
					NewOracle: fixedOracle(oracle.Empty{}), Algo: election.MaxLabelFlood{}},
				{Name: "marked-flood", Aliases: []string{"mark"},
					NewOracle: fixedOracle(election.MarkOracle{}), Algo: election.MarkedFlood{}},
			},
		},
	}
}

// TaskNames lists the registered task names in registry order.
func TaskNames() []string {
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.Name
	}
	return names
}

// TaskByName resolves a task name.
func TaskByName(name string) (Task, error) {
	for _, t := range tasks {
		if t.Name == name {
			return t, nil
		}
	}
	return Task{}, fmt.Errorf("catalog: unknown task %q (have %s)",
		name, strings.Join(TaskNames(), " | "))
}

// Fingerprint digests every registered name — tasks, their schemes and
// aliases, graph families, schedulers — into a short hex string. Two
// processes with equal fingerprints resolve the same names to the same
// registry entries, which is the precondition for a distributed campaign's
// byte-identical-merge contract: oracleherd compares its own fingerprint
// against the one each worker reports in /healthz and refuses fleets that
// disagree. The digest covers names and registry order, not code, so it
// catches version skew in what is selectable rather than guaranteeing
// identical binaries.
func Fingerprint() string {
	h := sha256.New()
	field := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	for _, t := range tasks {
		field("task", t.Name)
		for _, sc := range t.Schemes {
			field(append([]string{"scheme", t.Name, sc.Name}, sc.Aliases...)...)
		}
	}
	for _, f := range FamilyNames() {
		field("family", f)
	}
	for _, s := range SchedulerNames() {
		field("scheduler", s)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// MessageBudget is the generous per-run send cap Execute uses when a run
// sets none: election by max-label flooding legitimately costs O(n·m), so
// the linear default of the simulator is too tight for a shared grid.
func MessageBudget(g *graph.Graph) int { return 4*g.N()*g.M() + 1024 }

// FamilyByName resolves a graph family. graphgen owns the registry; this
// delegation exists so frontends resolve every name through one package.
func FamilyByName(name string) (graphgen.Family, error) {
	return graphgen.FamilyByName(name)
}

// FamilyNames lists the registered graph family names.
func FamilyNames() []string {
	fams := graphgen.Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// schedulerNames lists sim.Schedulers' names in display order, so Resolve
// checks a name without building the factories; TestRegistriesNonEmpty
// holds it to sim.Schedulers' keys.
var schedulerNames = []string{"fifo", "lifo", "random", "delay"}

// SchedulerNames lists the registered scheduler names. The slice is fresh
// on every call.
func SchedulerNames() []string { return slices.Clone(schedulerNames) }

func checkScheduler(name string) error {
	if !slices.Contains(schedulerNames, name) {
		return fmt.Errorf("catalog: unknown scheduler %q (have %s)",
			name, strings.Join(schedulerNames, " | "))
	}
	return nil
}

// schedulerFactory looks up the named scheduler kind; randomized
// schedulers derive their stream from seed.
func schedulerFactory(name string, seed int64) (sim.SchedulerFactory, error) {
	if err := checkScheduler(name); err != nil {
		return nil, err
	}
	return sim.Schedulers(seed)[name], nil
}

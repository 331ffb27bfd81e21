// Command oraclesim runs one distributed task on one network under one
// oracle and prints the oracle size, message count, the scheme's proven
// bound and verdicts — a command-line microscope for the paper's
// constructions and this repository's extensions. It exits 1 when the run
// is incomplete or exceeds the bound. All names (families, tasks,
// oracles/schemes, engines, schedulers) resolve through internal/catalog,
// and the run goes through catalog.Resolve and Run.Do, the same path
// behind cmd/campaign and the oracled service's /v1/run.
//
// Examples:
//
//	oraclesim -family random-sparse -n 256 -task wakeup
//	oraclesim -family complete -n 64 -task broadcast -scheduler lifo
//	oraclesim -family hypercube -n 128 -task broadcast -oracle none
//	oraclesim -family grid -n 100 -task wakeup -oracle full-map -engine goroutines
//	oraclesim -family torus -n 144 -task gossip
//	oraclesim -family cycle -n 64 -task election -oracle none
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"oraclesize/internal/catalog"
	"oraclesize/internal/graph"
	"oraclesize/internal/oracle"
	"oraclesize/internal/scheme"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oraclesim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		familyName = fs.String("family", "random-sparse", "graph family: "+strings.Join(catalog.FamilyNames(), " | "))
		n          = fs.Int("n", 256, "requested network size")
		task       = fs.String("task", "broadcast", "task: "+strings.Join(catalog.TaskNames(), " | "))
		oracleName = fs.String("oracle", "paper", "oracle scheme (canonical name or alias, e.g. paper | none | full-map | mark)")
		schedName  = fs.String("scheduler", "fifo", "scheduler: "+strings.Join(catalog.SchedulerNames(), " | "))
		engine     = fs.String("engine", "queue", "engine: queue | goroutines")
		seed       = fs.Int64("seed", 1, "random seed")
		source     = fs.Int("source", 0, "source node index")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	run, err := catalog.Resolve(*task, *oracleName, *engine, *schedName, *seed)
	if err != nil {
		return fail(errOut, err)
	}
	fam, err := catalog.FamilyByName(*familyName)
	if err != nil {
		return fail(errOut, err)
	}
	g, err := fam.Generate(*n, *seed)
	if err != nil {
		return fail(errOut, err)
	}
	if *source < 0 || *source >= g.N() {
		return fail(errOut, fmt.Errorf("source %d out of range [0,%d)", *source, g.N()))
	}
	done, err := run.Do(g, graph.NodeID(*source))
	if err != nil {
		return fail(errOut, err)
	}
	res := done.Result

	stats := oracle.Stats(done.Advice)
	fmt.Fprintf(out, "network      %s  n=%d m=%d maxdeg=%d\n", *familyName, g.N(), g.M(), g.MaxDegree())
	fmt.Fprintf(out, "task         %s  (algorithm %s)\n", *task, run.Scheme.Algo.Name())
	fmt.Fprintf(out, "oracle       %s  size=%d bits  max-node=%d bits  nonempty-nodes=%d\n",
		*oracleName, stats.TotalBits, stats.MaxNodeBits, stats.NonEmptyNodes)
	// Only the queue engine has a scheduler; the goroutines engine's
	// delivery order is the Go scheduler's.
	if run.Engine == catalog.EngineQueue {
		fmt.Fprintf(out, "engine       %s/%s\n", run.Engine, run.Scheduler)
	} else {
		fmt.Fprintf(out, "engine       %s\n", run.Engine)
	}
	fmt.Fprintf(out, "messages     %d total", res.Messages)
	for _, k := range []scheme.Kind{scheme.KindM, scheme.KindHello, scheme.KindProbe, scheme.KindUp, scheme.KindDown} {
		if c := res.ByKind[k]; c > 0 {
			fmt.Fprintf(out, "  %s=%d", k, c)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "bandwidth    %d bits total  max-node-sends=%d\n", res.MessageBits, res.MaxNodeSends)
	if run.Scheme.Bound == nil {
		fmt.Fprintln(out, "bound        none")
	} else {
		messages, adviceBits := run.Scheme.Bound(g.N())
		fmt.Fprintf(out, "bound        messages<=%d advice<=%d bits\n", messages, adviceBits)
	}
	// Do's verdict: the task's completion check, then the bound.
	fmt.Fprintf(out, "complete     %v  (rounds=%d)\n", done.Check == nil, res.Rounds)
	if done.Check != nil {
		return fail(errOut, done.Check)
	}
	return 0
}

func fail(errOut io.Writer, err error) int {
	fmt.Fprintln(errOut, "oraclesim:", err)
	return 1
}

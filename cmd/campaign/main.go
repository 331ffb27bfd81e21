// Command campaign runs declarative experiment sweeps on a bounded worker
// pool and streams results as JSONL (see internal/campaign).
//
//	campaign run      -quick | -spec spec.json  [-out r.jsonl] [-workers N] [-seed S]
//	campaign resume   -out r.jsonl  [-quick | -spec spec.json] [-workers N] [-seed S]
//	campaign summary  -in r.jsonl  [-baseline old.jsonl] [-format text|markdown]
//	campaign validate -in r.jsonl
//	campaign canon    -in r.jsonl  [-o canonical.jsonl]
//
// "run" truncates -out (or writes to stdout); "resume" diffs the artifact
// against the spec's unit list and completes exactly the missing units.
// With -out, finished units waiting for a lower-indexed one are journaled
// to r.jsonl.pending for "resume" (see campaign.Sink). Records from the
// same spec and seed are byte-identical apart from the wall_ns field.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/experiments"
	"oraclesize/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: campaign <run|resume|summary|validate|canon> [flags]

subcommands:
  run       execute a campaign spec (use -quick for the built-in smoke grid)
  resume    complete the units missing from an interrupted -out file
  summary   aggregate a JSONL file into tables, optionally vs -baseline
  validate  check every JSONL record against the campaign record schema
  canon     rewrite a JSONL file in canonical order with timing stripped
`

func run(args []string, out, errOut io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(errOut, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], false, out, errOut)
	case "resume":
		return cmdRun(args[1:], true, out, errOut)
	case "summary":
		return cmdSummary(args[1:], out, errOut)
	case "validate":
		return cmdValidate(args[1:], out, errOut)
	case "canon":
		return cmdCanon(args[1:], out, errOut)
	default:
		fmt.Fprintf(errOut, "campaign: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
}

// loadSpecArg resolves the spec from -spec/-quick/-seed flags.
func loadSpecArg(specPath string, quick bool, seed int64, seedSet bool) (*campaign.Spec, error) {
	var spec *campaign.Spec
	switch {
	case specPath != "":
		s, err := campaign.LoadSpec(specPath)
		if err != nil {
			return nil, err
		}
		spec = s
	case quick:
		spec = campaign.QuickSpec()
	default:
		return nil, fmt.Errorf("campaign: need -spec file or -quick")
	}
	if seedSet {
		spec.Seed = seed
	}
	return spec, nil
}

func cmdRun(args []string, resume bool, out, errOut io.Writer) int {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet("campaign "+name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		specPath   = fs.String("spec", "", "campaign spec file (JSON)")
		quick      = fs.Bool("quick", false, "use the built-in quick smoke spec")
		outPath    = fs.String("out", "", "results JSONL file (default stdout; required for resume)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 0, "override the spec seed")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocs profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(errOut, err)
		}
	}()
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	spec, err := loadSpecArg(*specPath, *quick, *seed, seedSet)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	var sink *campaign.Sink
	var done map[string]bool
	switch {
	case *outPath != "":
		if sink, done, err = campaign.OpenJSONL(*outPath, spec, resume); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer sink.Close()
	case resume:
		fmt.Fprintln(errOut, "campaign: resume requires -out")
		return 1
	default:
		sink = campaign.NewSink(out)
	}

	start := time.Now()
	stats, err := campaign.Run(spec, sink, campaign.RunOptions{
		Workers: *workers,
		Done:    done,
	})
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(errOut, "campaign %s %s: %d units (%d run, %d skipped), %d records, instance cache %d/%d hits, wall %v\n",
		spec.Name, spec.Hash(), stats.Units, stats.Executed, stats.Skipped,
		stats.Records, stats.CacheHits, stats.CacheHits+stats.CacheMisses,
		time.Since(start).Round(time.Millisecond))
	return 0
}

// streamInto feeds every record of a JSONL file through fn.
func streamInto(path string, errOut io.Writer, fn func(campaign.Record) error) bool {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return false
	}
	defer f.Close()
	if err := campaign.StreamRecords(f, fn); err != nil {
		fmt.Fprintln(errOut, err)
		return false
	}
	return true
}

func cmdSummary(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign summary", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		in       = fs.String("in", "", "results JSONL file")
		baseline = fs.String("baseline", "", "baseline JSONL file for per-cell deltas")
		format   = fs.String("format", "text", "output format: text | markdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(errOut, "campaign: summary requires -in")
		return 1
	}
	if *format != "text" && *format != "markdown" {
		fmt.Fprintf(errOut, "unknown format %q\n", *format)
		return 1
	}
	// Records stream into the aggregator one at a time — task sweeps fold
	// to O(grid) cells, so summarizing a huge artifact never holds it.
	agg := campaign.NewAggregator()
	if !streamInto(*in, errOut, func(r campaign.Record) error { agg.Add(r); return nil }) {
		return 1
	}
	var tables []*experiments.Table
	if *baseline != "" {
		base := campaign.NewAggregator()
		if !streamInto(*baseline, errOut, func(r campaign.Record) error { base.Add(r); return nil }) {
			return 1
		}
		tables = campaign.SummaryOf(agg, base)
	} else {
		tables = agg.Tables()
	}
	for _, t := range tables {
		fmt.Fprintln(out, renderTable(t, *format))
	}
	return 0
}

func renderTable(t *experiments.Table, format string) string {
	if format == "markdown" {
		return t.RenderMarkdown()
	}
	return t.Render()
}

// cmdCanon rewrites a results file into its canonical form — wall_ns
// stripped, records sorted by (unit key, row) — so two artifacts of the
// same spec compare byte for byte regardless of which machine, worker
// fleet, or resume history produced them. The input streams; only the
// records themselves are held for sorting.
func cmdCanon(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign canon", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		in      = fs.String("in", "", "results JSONL file")
		outPath = fs.String("o", "", "canonical JSONL output (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(errOut, "campaign: canon requires -in")
		return 1
	}
	var recs []campaign.Record
	if !streamInto(*in, errOut, func(r campaign.Record) error { recs = append(recs, r); return nil }) {
		return 1
	}
	w, closeOut, ok := outputWriter(*outPath, out, errOut)
	if !ok {
		return 1
	}
	defer closeOut()
	if err := campaign.EncodeRecords(w, campaign.Canonicalize(recs)); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	return 0
}

// outputWriter resolves -o: a file when set, fallthrough otherwise.
func outputWriter(path string, out, errOut io.Writer) (io.Writer, func(), bool) {
	if path == "" {
		return out, func() {}, true
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return nil, nil, false
	}
	return f, func() { f.Close() }, true
}

func cmdValidate(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign validate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	in := fs.String("in", "", "results JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(errOut, "campaign: validate requires -in")
		return 1
	}
	total, bad := 0, 0
	if !streamInto(*in, errOut, func(r campaign.Record) error {
		total++
		if err := r.Validate(); err != nil {
			fmt.Fprintf(errOut, "record %d: %v\n", total, err)
			bad++
		}
		return nil
	}) {
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(errOut, "campaign: %d of %d records invalid\n", bad, total)
		return 1
	}
	fmt.Fprintf(out, "campaign: %d records valid\n", total)
	return 0
}

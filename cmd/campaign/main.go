// Command campaign runs declarative experiment sweeps on a bounded worker
// pool and streams results as JSONL (see internal/campaign) or into an
// embedded warehouse (see internal/warehouse).
//
//	campaign run      -quick | -spec spec.json  [-out r.jsonl | -warehouse dir] [-workers N] [-seed S]
//	campaign resume   (-out r.jsonl | -warehouse dir)  [-quick | -spec spec.json] [-workers N] [-seed S]
//	campaign summary  (-in r.jsonl | -warehouse dir)  [-baseline old.jsonl] [-format text|markdown]
//	campaign validate -in r.jsonl
//	campaign canon    -in r.jsonl  [-o canonical.jsonl]
//	campaign query    -warehouse dir [-task T] [-scheme S] [-family F] [-n N] [-seed S] [-kind K] [-unit U] [-o out.jsonl]
//	campaign import   -in r.jsonl -warehouse dir
//	campaign export   -warehouse dir [-o out.jsonl]
//	campaign compact  -warehouse dir
//
// "run" truncates -out (or writes to stdout); "resume" diffs the artifact
// against the spec's unit list and completes exactly the missing units —
// against a warehouse that diff is a unit-index lookup, not a record
// scan. "export" writes a warehouse's contents as canonical JSONL,
// byte-identical to `campaign canon` over the flat JSONL of the same
// run. Records from the same spec and seed are byte-identical across
// runs apart from the wall_ns field.
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
	"oraclesize/internal/warehouse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: campaign <run|resume|summary|validate|canon|query|import|export|compact> [flags]

subcommands:
  run       execute a campaign spec (use -quick for the built-in smoke grid)
  resume    complete the units missing from an interrupted -out file or -warehouse
  summary   aggregate a JSONL file or warehouse into tables, optionally vs -baseline
  validate  check every JSONL record against the campaign record schema
  canon     rewrite a JSONL file in canonical order with timing stripped
  query     print matching warehouse records (canonical JSONL) using the sparse index
  import    deposit an existing JSONL artifact into a warehouse
  export    write a warehouse as canonical JSONL (byte-identical to canon)
  compact   fold a warehouse's write-ahead logs into committed segments
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
	case "query":
		return cmdQuery(args[1:], out, errOut)
	case "import":
		return cmdImport(args[1:], out, errOut)
	case "export":
		return cmdExport(args[1:], out, errOut)
	case "compact":
		return cmdCompact(args[1:], out, errOut)
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
		outPath    = fs.String("out", "", "results JSONL file (default stdout; -out or -warehouse required for resume)")
		whDir      = fs.String("warehouse", "", "deposit into this warehouse directory instead of JSONL")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 0, "override the spec seed")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocs profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *outPath != "" && *whDir != "" {
		fmt.Fprintln(errOut, "campaign: choose one of -out and -warehouse")
		return 1
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

	var store campaign.Store
	var wh *warehouse.Warehouse
	var done map[string]bool
	switch {
	case *whDir != "":
		if wh, done, err = warehouse.OpenRun(*whDir, spec, resume); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer wh.Close()
		store = wh
	case *outPath != "":
		f, d, err := campaign.OpenJSONL(*outPath, spec, resume)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer f.Close()
		store, done = campaign.NewSink(f), d
	case resume:
		fmt.Fprintln(errOut, "campaign: resume requires -out or -warehouse")
		return 1
	default:
		store = campaign.NewSink(out)
	}

	start := time.Now()
	stats, err := campaign.Run(spec, store, campaign.RunOptions{
		Workers: *workers,
		Done:    done,
	})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(errOut, "campaign %s %s: %d units (%d run, %d skipped), %d records, instance cache %d/%d hits, wall %v\n",
		spec.Name, spec.Hash(), stats.Units, stats.Executed, stats.Skipped,
		stats.Records, stats.CacheHits, stats.CacheHits+stats.CacheMisses,
		time.Since(start).Round(time.Millisecond))
	if wh != nil {
		if err := wh.Close(); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		printWarehouseStats(errOut, wh)
	}
	return 0
}

// printWarehouseStats renders the store counters on one summary line.
func printWarehouseStats(errOut io.Writer, wh *warehouse.Warehouse) {
	s := wh.Stats()
	fmt.Fprintf(errOut, "warehouse: %d units, %d records (%d in %d segments, %d in WAL), WAL %d bytes, %d compactions, index %d/%d blocks skipped\n",
		s.Units, s.Records, s.SegmentRecords, s.Segments, s.WALRecords,
		s.WALBytes, s.Compactions, s.IndexSkips, s.IndexSkips+s.IndexReads)
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
		whDir    = fs.String("warehouse", "", "summarize this warehouse instead of a JSONL file")
		baseline = fs.String("baseline", "", "baseline JSONL file for per-cell deltas")
		format   = fs.String("format", "text", "output format: text | markdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*in == "") == (*whDir == "") {
		fmt.Fprintln(errOut, "campaign: summary requires exactly one of -in and -warehouse")
		return 1
	}
	if *format != "text" && *format != "markdown" {
		fmt.Fprintf(errOut, "unknown format %q\n", *format)
		return 1
	}
	// Records stream into the aggregator one at a time — task sweeps fold
	// to O(grid) cells, so summarizing a huge artifact never holds it.
	agg := campaign.NewAggregator()
	if *whDir != "" {
		wh, err := warehouse.Open(*whDir, warehouse.Options{})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer wh.Close()
		if err := wh.Scan(func(r campaign.Record) error { agg.Add(r); return nil }); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	} else if !streamInto(*in, errOut, func(r campaign.Record) error { agg.Add(r); return nil }) {
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

// cmdQuery prints the records matching the given filters in canonical
// order, pruning segment blocks with the warehouse's sparse index.
func cmdQuery(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign query", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		whDir   = fs.String("warehouse", "", "warehouse directory (required)")
		task    = fs.String("task", "", "filter: task name")
		scheme  = fs.String("scheme", "", "filter: scheme name")
		family  = fs.String("family", "", "filter: graph family")
		n       = fs.Int("n", 0, "filter: requested size n")
		seed    = fs.Int64("seed", 0, "filter: unit seed")
		kind    = fs.String("kind", "", "filter: record kind (task | experiment)")
		unit    = fs.String("unit", "", "filter: exact unit key")
		outPath = fs.String("o", "", "output JSONL file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *whDir == "" {
		fmt.Fprintln(errOut, "campaign: query requires -warehouse")
		return 1
	}
	q := warehouse.Query{
		Kind:   *kind,
		Task:   *task,
		Scheme: *scheme,
		Family: *family,
		Unit:   *unit,
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			q.N, q.NSet = *n, true
		case "seed":
			q.Seed, q.SeedSet = *seed, true
		}
	})
	wh, err := warehouse.Open(*whDir, warehouse.Options{})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer wh.Close()
	recs, err := wh.QueryRecords(q)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	w, closeOut, ok := outputWriter(*outPath, out, errOut)
	if !ok {
		return 1
	}
	defer closeOut()
	if err := campaign.EncodeRecords(w, recs); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(errOut, "campaign: query matched %d records\n", len(recs))
	printWarehouseStats(errOut, wh)
	return 0
}

// cmdImport deposits an existing JSONL artifact into a warehouse,
// grouping consecutive records of one unit into one deposit so the
// idempotent-merge contract holds record batches together.
func cmdImport(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign import", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		in    = fs.String("in", "", "results JSONL file (required)")
		whDir = fs.String("warehouse", "", "warehouse directory (required)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" || *whDir == "" {
		fmt.Fprintln(errOut, "campaign: import requires -in and -warehouse")
		return 1
	}
	wh, err := warehouse.Open(*whDir, warehouse.Options{})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer wh.Close()
	var batch []campaign.Record
	next := wh.Units() // synthetic deposit ordinals continue past existing units
	specHash := wh.SpecHash()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := wh.Deposit(next, batch); err != nil {
			return err
		}
		next++
		batch = nil
		return nil
	}
	ok := streamInto(*in, errOut, func(r campaign.Record) error {
		switch {
		case specHash == "":
			specHash = r.SpecHash
		case r.SpecHash != specHash:
			return fmt.Errorf("campaign: %s mixes spec %s with %s — a warehouse holds one spec", *in, specHash, r.SpecHash)
		}
		if len(batch) > 0 && batch[len(batch)-1].Unit != r.Unit {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, r)
		return nil
	})
	if !ok {
		return 1
	}
	if err := flush(); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if err := wh.Close(); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(out, "campaign: imported %d records (%d units, %d duplicates dropped) into %s\n",
		wh.Written(), wh.Flushed(), wh.Deduped(), *whDir)
	return 0
}

// cmdExport writes the warehouse's contents as canonical JSONL —
// byte-identical to `campaign canon` over the flat artifact of the same
// run, which is the compatibility contract every downstream tool keeps
// relying on.
func cmdExport(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign export", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		whDir   = fs.String("warehouse", "", "warehouse directory (required)")
		outPath = fs.String("o", "", "canonical JSONL output (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *whDir == "" {
		fmt.Fprintln(errOut, "campaign: export requires -warehouse")
		return 1
	}
	wh, err := warehouse.Open(*whDir, warehouse.Options{})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer wh.Close()
	w, closeOut, ok := outputWriter(*outPath, out, errOut)
	if !ok {
		return 1
	}
	defer closeOut()
	if err := wh.Export(w); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	printWarehouseStats(errOut, wh)
	return 0
}

// cmdCompact folds a warehouse's write-ahead logs into committed
// segments, leaving an empty WAL tail.
func cmdCompact(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("campaign compact", flag.ContinueOnError)
	fs.SetOutput(errOut)
	whDir := fs.String("warehouse", "", "warehouse directory (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *whDir == "" {
		fmt.Fprintln(errOut, "campaign: compact requires -warehouse")
		return 1
	}
	wh, err := warehouse.Open(*whDir, warehouse.Options{})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer wh.Close()
	if err := wh.Compact(); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if err := wh.Close(); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	printWarehouseStats(errOut, wh)
	return 0
}

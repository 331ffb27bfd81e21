// Command benchjson runs the repository's core performance benchmarks with
// allocation accounting and records the results in BENCH_sim.json, the
// repo's perf trajectory file. Each invocation appends one labeled entry,
// so successive runs (one per perf-relevant change) form a comparable
// series.
//
//	benchjson [-o BENCH_sim.json] [-label current] [-n 1024] [-m 4096] [-seed 1]
//	benchjson -check BENCH_sim.json [-n 1024] [-m 4096] [-seed 1]
//
// The measured benchmarks mirror bench_test.go's public-API pair plus the
// steady-state engine hot loop, advice construction and raw graph
// construction:
//
//	public-wakeup      Wakeup(g, source): oracle + simulation per op
//	public-broadcast   Broadcast(g, source): oracle + simulation per op
//	engine-wakeup      reused sim.Engine, advice precomputed: simulation only
//	engine-broadcast   reused sim.Engine, advice precomputed: simulation only
//	engine-flooding    reused sim.Engine, wakeup flooding: no advice and
//	                   2m-(n-1) messages, the baseline every campaign runs
//	                   beside the paper's schemes
//	advice-wakeup, advice-broadcast, advice-gossip, advice-election
//	                   the task's bounded catalog scheme's oracle on g per op
//	graph-build        RandomNetwork: generator + CSR construction per op
//	graph-build-random-sparse, graph-build-random-regular, graph-build-grid
//	                   that graphgen family at the entry's n per op
//
// The graph-build rows cycle through graphBuildSeeds seeds from -seed on,
// since one seed's cost can sit far from the mean (RandomRegular's
// rejection sampling), and the entry records the count. The scheme and
// advice rows also record the advice bits and messages of one untimed
// call, so a speedup that changes the science shows in the entry.
//
// -check re-measures and compares with the file's last entry instead of
// appending: it exits 1 when a row's advice_bits or messages differ from
// the entry's, or its allocs/op exceed the entry's by more than 10%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"oraclesize"
	"oraclesize/internal/broadcast"
	"oraclesize/internal/catalog"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// File is the BENCH_sim.json document: a schema tag plus the entry series.
// Entries stay raw, so appending rewrites every recorded entry byte for
// byte.
type File struct {
	Schema  string            `json:"schema"`
	Entries []json.RawMessage `json:"entries"`
}

// Entry is one benchjson invocation.
type Entry struct {
	Label  string `json:"label"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	// GraphBuildSeeds is how many seeds the graph-build rows cycle
	// through (absent before pr31: one seed).
	GraphBuildSeeds int         `json:"graph_build_seeds,omitempty"`
	Benchmarks      []Benchmark `json:"benchmarks"`
}

// Benchmark is one measured benchmark within an entry.
type Benchmark struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	AdviceBits  int     `json:"advice_bits,omitempty"`
	Messages    int     `json:"messages,omitempty"`
}

const schema = "oraclesize/bench/v1"

// graphBuildSeeds is how many consecutive seeds the graph-build rows
// cycle through.
const graphBuildSeeds = 64

// allocSlack is how far -check lets a row's allocs/op exceed the
// recorded entry's: 10%.
const allocSlack = 0.10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		outPath = fs.String("o", "BENCH_sim.json", "benchmark trajectory file to append to")
		label   = fs.String("label", "current", "label for this entry (e.g. a PR or commit id)")
		n       = fs.Int("n", 1024, "benchmark graph nodes")
		m       = fs.Int("m", 4096, "benchmark graph edges")
		seed    = fs.Int64("seed", 1, "benchmark graph seed")
		check   = fs.String("check", "", "re-measure and compare with this file's last entry instead of appending")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g, err := oraclesize.RandomNetwork(*n, *m, *seed)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	wakeupAdvice, err := oraclesize.WakeupAdvice(g, 0)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	broadcastAdvice, err := oraclesize.BroadcastAdvice(g, 0)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	wakeupEngine, broadcastEngine, floodingEngine := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
	type bench struct {
		name string
		op   func() (adviceBits, messages int, err error)
	}
	// The advice rows simulate nothing, so their messages are zero; the
	// graph-build rows build no advice either.
	benches := []bench{
		{"public-wakeup", func() (int, int, error) {
			r, err := oraclesize.Wakeup(g, 0)
			return r.OracleBits, r.Messages, err
		}},
		{"public-broadcast", func() (int, int, error) {
			r, err := oraclesize.Broadcast(g, 0)
			return r.OracleBits, r.Messages, err
		}},
		{"engine-wakeup", func() (int, int, error) {
			res, err := wakeupEngine.Run(g, 0, wakeup.Algorithm{}, wakeupAdvice, sim.Options{EnforceWakeup: true})
			if err != nil {
				return 0, 0, err
			}
			return wakeupAdvice.SizeBits(), res.Messages, nil
		}},
		{"engine-broadcast", func() (int, int, error) {
			res, err := broadcastEngine.Run(g, 0, broadcast.Algorithm{}, broadcastAdvice, sim.Options{})
			if err != nil {
				return 0, 0, err
			}
			return broadcastAdvice.SizeBits(), res.Messages, nil
		}},
		{"engine-flooding", func() (int, int, error) {
			res, err := floodingEngine.Run(g, 0, wakeup.Flooding{}, nil, sim.Options{EnforceWakeup: true})
			if err != nil {
				return 0, 0, err
			}
			return 0, res.Messages, nil
		}},
	}
	for _, task := range []string{"wakeup", "broadcast", "gossip", "election"} {
		td, err := catalog.TaskByName(task)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		orc := td.DefaultScheme().NewOracle(0)
		benches = append(benches, bench{"advice-" + task, func() (int, int, error) {
			advice, err := orc.Advise(g, 0)
			return advice.SizeBits(), 0, err
		}})
	}
	// nextSeed cycles a graph-build row through its seeds.
	nextSeed := func(i *int64) int64 {
		s := *seed + *i%graphBuildSeeds
		*i++
		return s
	}
	var networkOps int64
	benches = append(benches, bench{"graph-build", func() (int, int, error) {
		_, err := oraclesize.RandomNetwork(*n, *m, nextSeed(&networkOps))
		return 0, 0, err
	}})
	for _, name := range []string{"random-sparse", "random-regular", "grid"} {
		fam, err := graphgen.FamilyByName(name)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		var ops int64
		benches = append(benches, bench{"graph-build-" + name, func() (int, int, error) {
			_, err := fam.Generate(*n, nextSeed(&ops))
			return 0, 0, err
		}})
	}

	entry := Entry{
		Label:           *label,
		Go:              runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		Nodes:           g.N(),
		Edges:           g.M(),
		GraphBuildSeeds: graphBuildSeeds,
	}
	for _, bench := range benches {
		op := bench.op
		bits, msgs, err := op()
		if err != nil {
			fmt.Fprintf(errOut, "benchjson: %s: %v\n", bench.name, err)
			return 1
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		entry.Benchmarks = append(entry.Benchmarks, Benchmark{
			Name:        bench.name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			AdviceBits:  bits,
			Messages:    msgs,
		})
		fmt.Fprintf(out, "%-26s %10d iters  %12.0f ns/op  %10d B/op  %8d allocs/op  %6d advice bits  %6d messages\n",
			bench.name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
			r.AllocedBytesPerOp(), r.AllocsPerOp(), bits, msgs)
	}
	if *check != "" {
		return checkEntry(*check, entry, out, errOut)
	}
	return appendEntry(*outPath, entry, out, errOut)
}

// checkEntry compares a fresh measurement with the last entry of the file
// at path, row by row: advice bits and messages must be equal and
// allocs/op at most allocSlack above the entry's. A row the entry lacks
// is reported and passes. It returns the exit code.
func checkEntry(path string, fresh Entry, out, errOut io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != schema || len(doc.Entries) == 0 {
		fmt.Fprintf(errOut, "benchjson: %s is not a bench file with entries (%v)\n", path, err)
		return 1
	}
	var last Entry
	if err := json.Unmarshal(doc.Entries[len(doc.Entries)-1], &last); err != nil {
		fmt.Fprintf(errOut, "benchjson: %s: last entry: %v\n", path, err)
		return 1
	}
	if last.Nodes != fresh.Nodes || last.Edges != fresh.Edges {
		fmt.Fprintf(errOut, "benchjson: entry %q measured n=%d m=%d, this run n=%d m=%d\n", last.Label, last.Nodes, last.Edges, fresh.Nodes, fresh.Edges)
		return 1
	}
	recorded := make(map[string]Benchmark, len(last.Benchmarks))
	for _, b := range last.Benchmarks {
		recorded[b.Name] = b
	}
	failed := 0
	for _, b := range fresh.Benchmarks {
		r, ok := recorded[b.Name]
		switch {
		case !ok:
			fmt.Fprintf(out, "%-26s new row, not in entry %q\n", b.Name, last.Label)
			continue
		case b.AdviceBits != r.AdviceBits || b.Messages != r.Messages:
			fmt.Fprintf(out, "%-26s FAIL: %d advice bits, %d messages; entry %q has %d, %d\n",
				b.Name, b.AdviceBits, b.Messages, last.Label, r.AdviceBits, r.Messages)
			failed++
		case float64(b.AllocsPerOp) > float64(r.AllocsPerOp)*(1+allocSlack):
			fmt.Fprintf(out, "%-26s FAIL: %d allocs/op; entry %q has %d (+%.0f%% allowed)\n",
				b.Name, b.AllocsPerOp, last.Label, r.AllocsPerOp, 100*allocSlack)
			failed++
		default:
			fmt.Fprintf(out, "%-26s ok: %d allocs/op (entry %d), science unchanged\n", b.Name, b.AllocsPerOp, r.AllocsPerOp)
		}
	}
	if failed > 0 {
		fmt.Fprintf(errOut, "benchjson: %d of %d rows fail against entry %q of %s\n", failed, len(fresh.Benchmarks), last.Label, path)
		return 1
	}
	fmt.Fprintf(out, "all %d rows pass against entry %q of %s\n", len(fresh.Benchmarks), last.Label, path)
	return 0
}

// appendEntry loads (or creates) the trajectory file and appends entry.
func appendEntry(path string, entry Entry, out, errOut io.Writer) int {
	doc := File{Schema: schema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(errOut, "benchjson: %s exists but is not a bench file: %v\n", path, err)
			return 1
		}
		if doc.Schema != schema {
			fmt.Fprintf(errOut, "benchjson: %s has schema %q, want %q\n", path, doc.Schema, schema)
			return 1
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintln(errOut, err)
		return 1
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	doc.Entries = append(doc.Entries, raw)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(out, "wrote entry %q to %s (%d entries)\n", entry.Label, path, len(doc.Entries))
	return 0
}

// Command perfbench is the repository benchmark. It drives the real
// binaries — oracled, oracleherd and campaign, built from the checkout by
// run.sh — as processes on localhost, so it measures what a user of the
// service or of a fleet sweep sees, and it depends only on their flags and
// their HTTP/JSON API, never on the module's internal packages.
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (BENCHMARK.json says why each exists):
//
//	serve-hot    closed-loop POST /v1/run over a small repeated key set;
//	             after warm-up every request is a response-cache hit
//	serve-cold   closed-loop POST /v1/run where every request names a new
//	             instance seed, so each one builds a graph, constructs
//	             advice and simulates
//	sweep-fleet  back-to-back oracleherd campaigns over two oracled
//	             workers: shard dispatch, worker execution and the merge
//
// Inputs derive from --seed alone. Every response and every merged record
// is held to the paper's guarantees, and one campaign per run is compared
// record for record with a local `campaign run` of the same spec.
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the benchmark records a span around every call it makes into the
// system, writes the spans to .bench_build/trace/, and reports per-layer
// metrics instead. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured: operation counts, any correctness
// violations, and both metric sets.
type outcome struct {
	attempted, failed int64
	problems          []string
	endToEnd          map[string]metric
	perLayer          map[string]metric // filled only when tracing
}

// bench carries one invocation's settings.
type bench struct {
	bin   string // directory holding the built oracled, oracleherd and campaign
	work  string // scratch directory for logs, specs and artifacts
	seed  int64
	dur   time.Duration
	trace *tracer // nil unless --trace 1
}

var workloads = map[string]func(*bench) (*outcome, error){
	"serve-hot":   serveHot,
	"serve-cold":  serveCold,
	"sweep-fleet": sweepFleet,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "serve-hot | serve-cold | sweep-fleet")
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Int("seconds", 20, "measured duration in seconds")
		traceOn  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		build    = flag.String("build", ".bench_build", "build directory: binaries in bin/, scratch files and traces below it")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-hot|serve-cold|sweep-fleet, --seconds >= 1 and --trace 0|1")
		return 2
	}
	work, err := os.MkdirTemp(*build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{
		bin:  filepath.Join(*build, "bin"),
		work: work,
		seed: *seed,
		dur:  time.Duration(*seconds) * time.Second,
	}
	if *traceOn == 1 {
		b.trace = newTracer()
	}
	out, err := fn(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd,
	}
	if b.trace != nil {
		rep.Metrics = out.perLayer
		path := filepath.Join(*build, "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := b.trace.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", b.trace.len(), path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// problemList collects correctness violations from concurrent clients,
// keeping the first few verbatim and counting the rest.
type problemList struct {
	mu    sync.Mutex
	list  []string
	extra int
}

func (p *problemList) add(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.list) < 10 {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	} else {
		p.extra++
	}
}

func (p *problemList) all() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]string(nil), p.list...)
	if p.extra > 0 {
		out = append(out, fmt.Sprintf("... and %d more", p.extra))
	}
	return out
}

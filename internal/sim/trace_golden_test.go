package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"oraclesize/internal/catalog"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/trace"
)

// TestEngineTraceGolden pins every delivery order the queue engine makes
// against testdata/traces.golden: each catalog task and scheme, under each
// registered scheduler, on the path, grid, random-sparse, random-regular
// and complete families at n in {8, 33}, seeds 1-2, from source 0 with
// the scheme's own advice. A line digests the whole trace (every send,
// delivery and informed event, messages with their values) together with
// the run's counters, so a rewrite of the engine or its queues that moves
// one delivery, or a generator that moves one edge, fails here. Under
// fifo the engine's own queue (a nil Options.Scheduler, as
// catalog.Run.Execute leaves it) and NewFIFO must agree.
func TestEngineTraceGolden(t *testing.T) {
	var out strings.Builder
	for _, famName := range []string{"path", "grid", "random-sparse", "random-regular", "complete"} {
		fam, err := graphgen.FamilyByName(famName)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 33} {
			for seed := int64(1); seed <= 2; seed++ {
				g, err := fam.Generate(n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", famName, n, seed, err)
				}
				for _, task := range catalog.Tasks() {
					for _, sc := range task.Schemes {
						advice, err := sc.NewOracle(0).Advise(g, 0)
						if err != nil {
							t.Fatalf("%s/%s on %s n=%d: %v", task.Name, sc.Name, famName, n, err)
						}
						for _, sched := range catalog.SchedulerNames() {
							run := func(s sim.Scheduler) string {
								return traceDigest(g, task, sc, advice, s)
							}
							var line string
							if sched == "fifo" {
								line = run(nil)
								if own := run(sim.NewFIFO()); own != line {
									t.Errorf("%s/%s on %s n=%d seed=%d: NewFIFO gives %s, the engine's own queue %s",
										task.Name, sc.Name, famName, n, seed, own, line)
								}
							} else {
								line = run(sim.Schedulers(seed)[sched]())
							}
							fmt.Fprintf(&out, "%s/%s/%s/%s/n=%d/seed=%d %s\n",
								task.Name, sc.Name, sched, famName, n, seed, line)
						}
					}
				}
			}
		}
	}
	got := out.String()
	golden, err := os.ReadFile("testdata/traces.golden")
	if err != nil {
		t.Fatalf("%v; the new table is:\n%s", err, got)
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(golden), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("testdata/traces.golden: line %d differs\n got %q\nwant %q\nthe new table is:\n%s", i+1, g[i], w[i], got)
		}
	}
	if len(g) != len(w) {
		t.Fatalf("testdata/traces.golden: got %d lines, want %d; the new table is:\n%s", len(g), len(w), got)
	}
}

// traceDigest runs sc on g from source 0 as catalog.Run.Execute would,
// with a recorder, and returns the run's counters and a digest of its
// trace and result, or the run's error.
func traceDigest(g *graph.Graph, task catalog.Task, sc catalog.Scheme, advice sim.Advice, s sim.Scheduler) string {
	rec := &trace.Recorder{}
	res, err := sim.Run(g, 0, sc.Algo, advice, sim.Options{
		Scheduler:     s,
		MaxMessages:   catalog.MessageBudget(g),
		EnforceWakeup: task.EnforceWakeup,
		RetainNodes:   task.NeedsNodes,
		Recorder:      rec,
	})
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, e := range rec.Events() {
		put(int64(e.Kind))
		put(int64(e.Seq))
		put(int64(e.Node))
		put(int64(e.Peer))
		put(int64(e.Port))
		put(int64(e.Msg.Kind))
		put(int64(e.Msg.Payload))
		flag(e.Msg.Informed)
		flag(e.Msg.Values == nil)
		put(int64(len(e.Msg.Values)))
		for _, v := range e.Msg.Values {
			put(v)
		}
	}
	put(int64(res.Messages))
	put(int64(res.MessageBits))
	put(int64(res.MaxNodeSends))
	put(int64(res.Rounds))
	put(int64(res.Deliveries))
	flag(res.AllInformed)
	kinds := make([]scheme.Kind, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		put(int64(k))
		put(int64(res.ByKind[k]))
	}
	return fmt.Sprintf("events=%d messages=%d rounds=%d %x", len(rec.Events()), res.Messages, res.Rounds, h.Sum(nil)[:12])
}

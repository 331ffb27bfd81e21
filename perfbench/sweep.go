package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// fleetWorkers is the sweep-fleet fleet: two oracled processes, the
// smallest fleet on which shard placement, per-worker sizing and the merge
// of records from several workers all matter.
const fleetWorkers = 2

// shardTarget is the service time oracleherd's adaptive sizer aims each
// shard at. Its 2s default suits sweeps of minutes; a campaign here takes
// about a second, and 100ms gives it tens of shards, so dispatch, sizing
// and the merge run many times per campaign.
const shardTarget = "100ms"

type taskSpec struct {
	Task    string   `json:"task"`
	Schemes []string `json:"schemes"`
}

// campaignSpec is the campaign.Spec JSON the sweep submits.
type campaignSpec struct {
	Name     string     `json:"name"`
	Seed     int64      `json:"seed"`
	Trials   int        `json:"trials"`
	Families []string   `json:"families"`
	Sizes    []int      `json:"sizes"`
	Tasks    []taskSpec `json:"tasks"`
}

// sweepSpec is campaign i of a run: both paper tasks under the paper's
// scheme and the flooding baseline, over random and structured families.
// Only the seed changes between campaigns, so every campaign does the
// same amount of work on new instances.
func sweepSpec(seed int64, i int) campaignSpec {
	return campaignSpec{
		Name:     "perfbench-sweep",
		Seed:     seed<<20 ^ int64(i),
		Trials:   6,
		Families: []string{"random-sparse", "random-regular", "grid"},
		Sizes:    []int{256, 512, 1024},
		Tasks: []taskSpec{
			{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"light-tree", "flooding"}},
		},
	}
}

func (s campaignSpec) units() int {
	schemes := 0
	for _, t := range s.Tasks {
		schemes += len(t.Schemes)
	}
	return len(s.Families) * len(s.Sizes) * schemes * s.Trials
}

// record is the part of a campaign JSONL record the checks read.
type record struct {
	SpecHash   string `json:"spec_hash"`
	Unit       string `json:"unit"`
	Kind       string `json:"kind"`
	Task       string `json:"task"`
	Scheme     string `json:"scheme"`
	Nodes      int    `json:"nodes"`
	AdviceBits int    `json:"advice_bits"`
	Messages   int    `json:"messages"`
	Complete   bool   `json:"complete"`
	WallNS     int64  `json:"wall_ns"`
}

func sweepFleet(b *bench) (*outcome, error) {
	var (
		workers []*server
		fleet   string
	)
	// Set-up is starting the fleet and running one campaign on it, on a
	// seed the timed window never uses, so timed campaigns find warm
	// processes.
	stop, setup, err := b.setUp(func() (func(), error) {
		ws := make([]*server, 0, fleetWorkers)
		stopAll := func() {
			for _, w := range ws {
				w.p.stop()
			}
		}
		urls := make([]string, 0, fleetWorkers)
		for i := 0; i < fleetWorkers; i++ {
			w, err := b.startOracled(fmt.Sprintf("worker%d", i+1))
			if err != nil {
				stopAll()
				return nil, err
			}
			ws = append(ws, w)
			urls = append(urls, w.url)
		}
		workers, fleet = ws, strings.Join(urls, ",")
		if _, _, err := b.campaign(0, fleet, sweepSpec(b.seed, -1), "warmup"); err != nil {
			stopAll()
			return nil, err
		}
		return stopAll, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	probs := &problemList{}

	before := make([]promSample, len(workers))
	for i, w := range workers {
		if before[i], err = scrape(w.url); err != nil {
			return nil, err
		}
	}
	var (
		makespans         []float64
		unitsDone         int
		attempted, failed int64
		execNS            []float64
		busy              time.Duration
	)
	window := b.trace.begin(0, "timed window")
	start := time.Now()
	for i := 0; time.Since(start) < b.dur; i++ {
		spec := sweepSpec(b.seed, i)
		attempted++
		out, span, err := b.campaign(window.id(), fleet, spec, fmt.Sprintf("c%d", i))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: campaign %d: %v\n", i, err)
			continue
		}
		busy += span
		makespans = append(makespans, span.Seconds())
		recs, err := readRecords(out)
		if err != nil {
			probs.add("campaign %d: %v", i, err)
			continue
		}
		for _, p := range checkRecords(spec, recs) {
			probs.add("campaign %d: %s", i, p)
		}
		unitsDone += len(recs)
		if b.trace != nil {
			for _, r := range recs {
				execNS = append(execNS, float64(r.WallNS))
			}
		}
		if i > 0 {
			os.Remove(out) // campaign 0 stays for the determinism check
		}
	}
	b.trace.end(window, nil)
	after := make([]promSample, len(workers))
	deltas := make([]promSample, len(workers))
	for i, w := range workers {
		if after[i], err = scrape(w.url); err != nil {
			return nil, err
		}
		deltas[i] = delta(before[i], after[i])
	}
	if len(makespans) == 0 {
		return nil, fmt.Errorf("no campaign finished")
	}

	// The determinism contract: the fleet's merge equals a local run of
	// the same spec, record for record, once wall_ns is set aside.
	if err := b.compareLocal(sweepSpec(b.seed, 0), filepath.Join(b.work, "c0.jsonl")); err != nil {
		probs.add("%v", err)
	}

	out := &outcome{
		attempted: attempted,
		failed:    failed,
		problems:  probs.all(),
		endToEnd:  latencyMetrics(makespans, busy, float64(unitsDone), setup),
	}
	if b.trace != nil {
		d := sum(deltas...)
		shards := d[`oracled_requests_total{endpoint="/v1/shard",code="200"}`]
		out.perLayer = serverLayers(d, `endpoint="/v1/shard"`)
		execMS := mean(execNS) / 1e6
		shardUnits := ratio(d["oracled_shard_units_total"], shards)
		out.perLayer["client_overhead_ms_mean"] = metric{0, "ms"}
		out.perLayer["exec_ms_mean"] = metric{execMS, "ms"}
		out.perLayer["server_other_ms_mean"] = metric{out.perLayer["server_ms_mean"].Value -
			out.perLayer["queue_wait_ms_mean"].Value - execMS*shardUnits, "ms"}
		out.perLayer["shards_per_campaign"] = metric{shards / float64(len(makespans)), "count"}
		out.perLayer["shard_units_mean"] = metric{shardUnits, "count"}
	}
	return out, nil
}

// campaign runs one oracleherd sweep over the fleet and returns the merged
// artifact's path and the sweep's makespan: process start to exit, as a
// user waiting on the command sees it.
func (b *bench) campaign(parent int64, fleet string, spec campaignSpec, name string) (string, time.Duration, error) {
	specPath := filepath.Join(b.work, name+".spec.json")
	out := filepath.Join(b.work, name+".jsonl")
	data, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return "", 0, err
	}
	sp := b.trace.begin(parent, "oracleherd "+name)
	t0 := time.Now()
	p, err := b.start("oracleherd", name+".herd", "-workers", fleet, "-spec", specPath,
		"-out", out, "-shard-target", shardTarget)
	if err != nil {
		return "", 0, err
	}
	<-p.exited
	span := time.Since(t0)
	b.trace.end(sp, map[string]int64{"units": int64(spec.units())})
	if p.err != nil {
		return "", span, fmt.Errorf("oracleherd: %v (see %s.herd.log)", p.err, name)
	}
	return out, span, nil
}

// compareLocal runs the spec with the local campaign engine and compares
// its records with the fleet's artifact.
func (b *bench) compareLocal(spec campaignSpec, fleetOut string) error {
	specPath := filepath.Join(b.work, "local.spec.json")
	localOut := filepath.Join(b.work, "local.jsonl")
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return err
	}
	sp := b.trace.begin(0, "campaign run (local reference)")
	p, err := b.start("campaign", "local", "run", "-spec", specPath, "-out", localOut, "-workers", fmt.Sprint(fleetWorkers))
	if err != nil {
		return err
	}
	<-p.exited
	b.trace.end(sp, nil)
	if p.err != nil {
		return fmt.Errorf("local campaign run: %v", p.err)
	}
	want, err := canonical(localOut)
	if err != nil {
		return err
	}
	got, err := canonical(fleetOut)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("fleet merged %d records, local run wrote %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("fleet record differs from local run:\n fleet %s\n local %s", got[i], want[i])
		}
	}
	return nil
}

// canonical reads a JSONL artifact into its canonical form: every record
// re-encoded without wall_ns, numbers kept verbatim, lines sorted.
func canonical(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber()
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("%s: %v", filepath.Base(path), err)
		}
		delete(m, "wall_ns")
		line, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(lines)
	return lines, nil
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return recs, fmt.Errorf("record %d: %v", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkRecords holds a merged artifact to its spec: one task record per
// unit, all from the same spec, each within its scheme's guarantees.
func checkRecords(spec campaignSpec, recs []record) []string {
	var probs []string
	if len(recs) != spec.units() {
		probs = append(probs, fmt.Sprintf("%d records for %d units", len(recs), spec.units()))
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Unit] {
			probs = append(probs, "duplicate unit "+r.Unit)
		}
		seen[r.Unit] = true
		if r.SpecHash != recs[0].SpecHash {
			probs = append(probs, fmt.Sprintf("unit %s has spec hash %s, first record %s", r.Unit, r.SpecHash, recs[0].SpecHash))
		}
		if r.Kind != "task" {
			probs = append(probs, fmt.Sprintf("unit %s has kind %q", r.Unit, r.Kind))
			continue
		}
		if err := checkResult(r.Task, r.Scheme, r.Nodes, r.AdviceBits, r.Messages, r.Complete); err != nil {
			probs = append(probs, fmt.Sprintf("unit %s: %v", r.Unit, err))
		}
	}
	return probs
}

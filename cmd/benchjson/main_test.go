package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"oraclesize"
	"oraclesize/internal/catalog"
)

// smallArgs sizes the test runs: a 64-node graph, every benchmark once.
var smallArgs = []string{"-n", "64", "-m", "160", "-seed", "3"}

// benchIters makes testing.Benchmark run each op iters times for the
// rest of t.
func benchIters(t *testing.T, iters string) {
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set(iters); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bt.Value.Set(old) })
}

// TestEntryRecordsScience runs every benchmark once on a small graph and
// checks that the entry records each scheme's advice bits and messages,
// equal to what the public API and the catalog's oracles report for the
// same graph.
func TestEntryRecordsScience(t *testing.T) {
	benchIters(t, "1x")
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if code := run(append([]string{"-o", path, "-label", "t"}, smallArgs...), io.Discard, io.Discard); code != 0 {
		t.Fatalf("benchjson exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entries []Entry `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Entries) != 1 {
		t.Fatalf("decoding %s: %v, %d entries", path, err, len(doc.Entries))
	}
	if got := doc.Entries[0].GraphBuildSeeds; got != graphBuildSeeds {
		t.Errorf("entry records %d graph-build seeds, want %d", got, graphBuildSeeds)
	}
	g, err := oraclesize.RandomNetwork(64, 160, 3)
	if err != nil {
		t.Fatal(err)
	}
	wakeup, err := oraclesize.Wakeup(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	broadcast, err := oraclesize.Broadcast(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{
		"public-wakeup":              {wakeup.OracleBits, wakeup.Messages},
		"engine-wakeup":              {wakeup.OracleBits, wakeup.Messages},
		"public-broadcast":           {broadcast.OracleBits, broadcast.Messages},
		"engine-broadcast":           {broadcast.OracleBits, broadcast.Messages},
		"engine-flooding":            {0, 2*g.M() - (g.N() - 1)}, // every woken node skips the port that woke it
		"graph-build":                {0, 0},
		"graph-build-random-sparse":  {0, 0},
		"graph-build-random-regular": {0, 0},
		"graph-build-grid":           {0, 0},
	}
	for _, task := range []string{"wakeup", "broadcast", "gossip", "election"} {
		td, err := catalog.TaskByName(task)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := td.DefaultScheme().NewOracle(0).Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want["advice-"+task] = [2]int{advice.SizeBits(), 0}
	}
	if want["advice-wakeup"][0] != wakeup.OracleBits || want["advice-broadcast"][0] != broadcast.OracleBits {
		t.Fatalf("catalog advice %v disagrees with the public API's %d, %d bits", want, wakeup.OracleBits, broadcast.OracleBits)
	}
	if wakeup.Messages != g.N()-1 || wakeup.OracleBits == 0 || broadcast.OracleBits == 0 {
		t.Fatalf("public API on the test graph: wakeup %+v, broadcast %+v", wakeup, broadcast)
	}
	got := doc.Entries[0].Benchmarks
	if len(got) != len(want) {
		t.Fatalf("entry has %d benchmarks, want %d", len(got), len(want))
	}
	for _, b := range got {
		if w, ok := want[b.Name]; !ok || [2]int{b.AdviceBits, b.Messages} != w {
			t.Errorf("%s: advice bits, messages = %d, %d; want %v", b.Name, b.AdviceBits, b.Messages, w)
		}
	}
}

// TestCheck: -check passes against an entry the same measurement wrote,
// fails when the entry's advice bits or messages differ or its allocs/op
// sit more than 10% below the fresh count, and writes nothing. Each op
// runs 100 times, so a one-off allocation (a pooled engine the garbage
// collector dropped) does not move allocs/op. Under -race, sync.Pool
// drops objects at random, so allocation counts mean nothing: the entry's
// are raised out of -check's reach and only the science and the
// file-unchanged checks run.
func TestCheck(t *testing.T) {
	benchIters(t, "100x")
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if code := run(append([]string{"-o", path, "-label", "t"}, smallArgs...), io.Discard, io.Discard); code != 0 {
		t.Fatalf("benchjson exit %d", code)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, edit func(*Benchmark), want int) {
		t.Helper()
		var doc File
		if err := json.Unmarshal(orig, &doc); err != nil {
			t.Fatal(err)
		}
		var e Entry
		if err := json.Unmarshal(doc.Entries[0], &e); err != nil {
			t.Fatal(err)
		}
		for i := range e.Benchmarks {
			if raceEnabled {
				e.Benchmarks[i].AllocsPerOp = math.MaxInt32
			}
			if e.Benchmarks[i].Name == "advice-broadcast" {
				edit(&e.Benchmarks[i])
			}
		}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		doc.Entries[0] = raw
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := run(append([]string{"-check", path}, smallArgs...), &out, io.Discard); code != want {
			t.Errorf("%s: -check exit %d, want %d:\n%s", name, code, want, out.String())
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s: -check changed the file (%v)", name, err)
		}
	}
	check("unchanged", func(*Benchmark) {}, 0)
	check("other advice bits", func(b *Benchmark) { b.AdviceBits++ }, 1)
	check("other messages", func(b *Benchmark) { b.Messages = 7 }, 1)
	if !raceEnabled {
		check("fewer recorded allocations", func(b *Benchmark) { b.AllocsPerOp = b.AllocsPerOp * 8 / 10 }, 1)
	}
	check("a row the entry lacks", func(b *Benchmark) { b.Name = "retired" }, 0)
}

// TestAppendKeepsEntryBytes: the recorded entries stay raw JSON, so an
// append must leave their bytes exactly as they were — the file up to the
// end of its last entry is a prefix of the file after the append.
func TestAppendKeepsEntryBytes(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := appendEntry(path, Entry{Label: "appended"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("appendEntry exit %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.LastIndex(orig, []byte("\n  ]"))
	if end < 0 {
		t.Fatal("BENCH_sim.json has no closing entries bracket")
	}
	if want := append(orig[:end:end], ','); !bytes.HasPrefix(got, want) {
		t.Errorf("the append rewrote recorded entries; want the first %d bytes unchanged", len(want))
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"oraclesize"
)

// TestEntryRecordsScience runs every benchmark once on a small graph and
// checks that the entry records each scheme's advice bits and messages,
// equal to what the public API reports for the same graph.
func TestEntryRecordsScience(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bt.Value.Set(old) })

	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if code := run([]string{"-o", path, "-label", "t", "-n", "64", "-m", "160", "-seed", "3"}, io.Discard, io.Discard); code != 0 {
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
		"graph-build":                {0, 0},
		"graph-build-random-sparse":  {0, 0},
		"graph-build-random-regular": {0, 0},
		"graph-build-grid":           {0, 0},
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

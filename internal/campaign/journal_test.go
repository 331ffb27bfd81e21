package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// journalSpec compiles to 81 units, more than journalAfter: 80 one-record
// task units, then one E5 replay whose records are its table rows.
func journalSpec() *Spec {
	return &Spec{
		Name:        "journal",
		Seed:        3,
		Trials:      40,
		Families:    []string{"path"},
		Sizes:       []int{8},
		Tasks:       []TaskSpec{{Task: "wakeup", Schemes: []string{"tree", "flooding"}}},
		Experiments: []string{"E5"},
		Quick:       true,
	}
}

// unitBatches runs spec uninterrupted and returns its bytes and each
// unit's records, by unit index.
func unitBatches(t *testing.T, spec *Spec) ([]byte, [][]Record) {
	t.Helper()
	full, _ := runToBuffer(t, spec, RunOptions{Workers: 2})
	recs, err := DecodeRecords(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, u := range spec.Units() {
		index[u.Key()] = i
	}
	batches := make([][]Record, len(index))
	for _, r := range recs {
		batches[index[r.Unit]] = append(batches[index[r.Unit]], r)
	}
	return full.Bytes(), batches
}

// crash drops a Sink the way a killed process does: its files close, and
// nothing else runs.
func crash(s *Sink) {
	s.file.Close()
	if s.journal != nil {
		s.journal.Close()
	}
}

// resume reopens the artifact at path, runs what is missing, closes the
// Sink and checks the artifact against an uninterrupted run. It returns
// how many units the resume ran.
func resume(t *testing.T, spec *Spec, path string, want []byte) int {
	t.Helper()
	sink, done, err := OpenJSONL(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(spec, sink, RunOptions{Workers: 2, Done: done})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stripWall(got) != stripWall(want) {
		t.Error("resumed artifact differs from an uninterrupted run (modulo wall_ns)")
	}
	if _, err := os.Stat(path + ".pending"); !os.IsNotExist(err) {
		t.Errorf("a completed resume left its journal behind (stat: %v)", err)
	}
	return stats.Executed
}

// TestJournalKeepsEarlyUnits holds unit 0 back, deposits units 1..69 out
// of order and crashes. None of them reached the artifact, but once more
// than journalAfter waited the Sink journaled them, so the resume runs
// only unit 0 and units 70..80.
func TestJournalKeepsEarlyUnits(t *testing.T) {
	spec := journalSpec()
	want, batches := unitBatches(t, spec)
	path := filepath.Join(t.TempDir(), "r.jsonl")
	sink, _, err := OpenJSONL(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = 70
	for i := prefix - 1; i >= 1; i-- {
		if err := sink.Deposit(i, batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(path + ".pending")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte("\n")); n != prefix-1 {
		t.Fatalf("journal holds %d records, want %d", n, prefix-1)
	}
	crash(sink)

	if ran, wantRan := resume(t, spec, path, want), 1+len(batches)-prefix; ran != wantRan {
		t.Errorf("resume ran %d units, want %d: unit 0 and the units past the prefix", ran, wantRan)
	}
}

// TestJournalTruncatesWhenNothingWaits checks the journal's life cycle in
// one run: it is created once units pile up behind unit 0, emptied when
// unit 0 lets them all through, and removed by Close.
func TestJournalTruncatesWhenNothingWaits(t *testing.T) {
	spec := journalSpec()
	want, batches := unitBatches(t, spec)
	path := filepath.Join(t.TempDir(), "r.jsonl")
	if err := os.WriteFile(path+".pending", []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, _, err := OpenJSONL(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".pending"); !os.IsNotExist(err) {
		t.Fatalf("a fresh run kept a stale journal (stat: %v)", err)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path + ".pending")
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for i := 1; i < len(batches); i++ {
		if err := sink.Deposit(i, batches[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".pending"); (i > journalAfter) != (err == nil) {
			t.Fatalf("after %d waiting units the journal exists: %v", i, err == nil)
		}
	}
	if size() == 0 {
		t.Fatal("journal is empty while units wait")
	}
	if err := sink.Deposit(0, batches[0]); err != nil {
		t.Fatal(err)
	}
	if n := size(); n != 0 {
		t.Errorf("journal holds %d bytes after every unit was written", n)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".pending"); !os.IsNotExist(err) {
		t.Errorf("Close left an empty journal behind (stat: %v)", err)
	}
	if got, err := os.ReadFile(path); err != nil || stripWall(got) != stripWall(want) {
		t.Errorf("artifact differs from an uninterrupted run (err %v)", err)
	}
}

// TestJournalConcurrentDeposits deposits units 1..80 from four goroutines
// at once, so journal appends race with each other, then lets unit 0
// through: the artifact must equal an uninterrupted run's and Close must
// remove the emptied journal.
func TestJournalConcurrentDeposits(t *testing.T) {
	spec := journalSpec()
	want, batches := unitBatches(t, spec)
	path := filepath.Join(t.TempDir(), "r.jsonl")
	sink, _, err := OpenJSONL(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := len(batches) - 1 - g; i >= 1; i -= 4 {
				if err := sink.Deposit(i, batches[i]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Deposit(0, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || stripWall(got) != stripWall(want) {
		t.Errorf("artifact differs from an uninterrupted run (err %v)", err)
	}
	if _, err := os.Stat(path + ".pending"); !os.IsNotExist(err) {
		t.Errorf("Close left the emptied journal behind (stat: %v)", err)
	}
}

// TestCloseJournalsWaitingUnits stops a run early with fewer than
// journalAfter units waiting: Close journals them, so the resume runs only
// the rest.
func TestCloseJournalsWaitingUnits(t *testing.T) {
	spec := journalSpec()
	want, batches := unitBatches(t, spec)
	path := filepath.Join(t.TempDir(), "r.jsonl")
	sink, _, err := OpenJSONL(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := sink.Deposit(i, batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".pending"); !os.IsNotExist(err) {
		t.Fatalf("10 waiting units were journaled before Close (stat: %v)", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if ran := resume(t, spec, path, want); ran != len(batches)-10 {
		t.Errorf("resume ran %d units, want %d", ran, len(batches)-10)
	}
}

// TestJournalDropsTornAndPartialTails writes journals by hand that end in
// a torn line or in the first rows of the E5 unit. Whole units the
// artifact lacks come back; the torn unit and the partial experiment unit
// rerun.
func TestJournalDropsTornAndPartialTails(t *testing.T) {
	spec := journalSpec()
	want, batches := unitBatches(t, spec)
	exp := len(batches) - 1
	if len(batches[exp]) < 2 {
		t.Fatalf("E5 unit has %d rows, want several", len(batches[exp]))
	}
	var whole []byte
	for i := 10; i < 20; i++ {
		var err error
		if whole, err = encodeUnit(whole, batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	line, err := encodeUnit(nil, batches[20])
	if err != nil {
		t.Fatal(err)
	}
	rows, err := encodeUnit(nil, batches[exp][:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		artifact []byte // lines of units 0..14, or nothing
		tail     []byte
		ran      int
	}{
		{"torn line", nil, line[:len(line)/2], len(batches) - 10},
		{"partial E5 unit", nil, rows, len(batches) - 10},
		{"whole line then torn", nil, append(append([]byte(nil), line...), rows[:10]...), len(batches) - 11},
		// A crash after the artifact write that let units 10..14 through,
		// but before the journal was emptied.
		{"units the artifact has", prefixLines(want, 15), nil, len(batches) - 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.jsonl")
			if err := os.WriteFile(path, tc.artifact, 0o644); err != nil {
				t.Fatal(err)
			}
			journal := append(append([]byte(nil), whole...), tc.tail...)
			if err := os.WriteFile(path+".pending", journal, 0o644); err != nil {
				t.Fatal(err)
			}
			if ran := resume(t, spec, path, want); ran != tc.ran {
				t.Errorf("resume ran %d units, want %d", ran, tc.ran)
			}
		})
	}
}

// prefixLines returns the first n lines of data.
func prefixLines(data []byte, n int) []byte {
	return bytes.Join(bytes.SplitAfter(data, []byte("\n"))[:n], nil)
}

// TestJournalRefusesForeignSpec: a journal another spec wrote is refused
// like such an artifact, even beside an empty artifact.
func TestJournalRefusesForeignSpec(t *testing.T) {
	other := journalSpec()
	other.Seed = 77
	_, batches := unitBatches(t, other)
	journal, err := encodeUnit(nil, batches[5])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.jsonl")
	if err := os.WriteFile(path+".pending", journal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenJSONL(path, journalSpec(), true)
	if err == nil || !strings.Contains(err.Error(), ".pending was produced by spec") || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("foreign journal: err %v", err)
	}
	if got, err := os.ReadFile(path + ".pending"); err != nil || !bytes.Equal(got, journal) {
		t.Errorf("the refused journal was changed (err %v)", err)
	}
}

package campaign

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"oraclesize/internal/catalog"
)

var wallField = regexp.MustCompile(`"wall_ns":\d+`)

func stripWall(jsonl []byte) string {
	return string(wallField.ReplaceAll(jsonl, []byte(`"wall_ns":0`)))
}

func runToBuffer(t *testing.T, spec *Spec, opts RunOptions) (*bytes.Buffer, Stats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := Run(spec, NewSink(&buf), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return &buf, stats
}

func TestRunDeterministicBytes(t *testing.T) {
	spec := QuickSpec()
	a, statsA := runToBuffer(t, spec, RunOptions{Workers: 4})
	b, statsB := runToBuffer(t, spec, RunOptions{Workers: 1})
	if statsA.Executed != statsA.Units || statsA.Executed != statsB.Executed {
		t.Fatalf("stats differ: %+v vs %+v", statsA, statsB)
	}
	if stripWall(a.Bytes()) != stripWall(b.Bytes()) {
		t.Error("same spec+seed produced different JSONL (modulo wall_ns)")
	}
	c, _ := runToBuffer(t, &Spec{
		Name: spec.Name, Seed: 99, Trials: spec.Trials,
		Families: spec.Families, Sizes: spec.Sizes, Tasks: spec.Tasks, Quick: true,
	}, RunOptions{Workers: 4})
	if stripWall(a.Bytes()) == stripWall(c.Bytes()) {
		t.Error("different seeds produced identical JSONL")
	}
}

func TestRunRecordsValidate(t *testing.T) {
	spec := QuickSpec()
	spec.Experiments = []string{"E5"}
	buf, stats := runToBuffer(t, spec, RunOptions{Workers: 4})
	recs, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(recs) != stats.Records || len(recs) == 0 {
		t.Fatalf("decoded %d records, stats say %d", len(recs), stats.Records)
	}
	hash := spec.Hash()
	tasks := map[string]bool{}
	families := map[string]bool{}
	sawExperiment := false
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
		if r.SpecHash != hash {
			t.Errorf("record %s carries hash %s, want %s", r.Unit, r.SpecHash, hash)
		}
		if r.Kind == KindTask {
			tasks[r.Task] = true
			families[r.Family] = true
		} else {
			sawExperiment = true
		}
	}
	if !tasks["wakeup"] || !tasks["broadcast"] || len(families) < 2 {
		t.Errorf("grid coverage wrong: tasks=%v families=%v", tasks, families)
	}
	if !sawExperiment {
		t.Error("no experiment replay records")
	}
}

// TestResumeCompletesExactlyMissingUnits simulates a run killed mid-write:
// the artifact holds whole lines plus a torn one. ScanDoneFile must report
// the whole lines' units as done and a valid prefix that excludes the torn
// line, and a resume from that prefix must complete the artifact to the
// bytes of an uninterrupted run (modulo wall_ns).
func TestResumeCompletesExactlyMissingUnits(t *testing.T) {
	spec := QuickSpec()
	full, _ := runToBuffer(t, spec, RunOptions{Workers: 4})
	fullLines := strings.SplitAfter(full.String(), "\n")

	// Simulated kill: the first 7 complete lines (quick spec task units
	// emit exactly one line each), then 10 bytes of the 8th.
	partial := strings.Join(fullLines[:7], "")
	path := t.TempDir() + "/results.jsonl"
	if err := os.WriteFile(path, []byte(partial+fullLines[7][:10]), 0o644); err != nil {
		t.Fatal(err)
	}
	done, _, validLen, err := ScanDoneFile(path)
	if err != nil {
		t.Fatalf("ScanDoneFile: %v", err)
	}
	if len(done) != 7 {
		t.Fatalf("torn artifact: %d done keys, want 7", len(done))
	}
	if validLen != int64(len(partial)) {
		t.Fatalf("validLen = %d, want %d (torn tail must be excluded)", validLen, len(partial))
	}

	var resumed bytes.Buffer
	stats, err := Run(spec, NewSink(&resumed), RunOptions{Workers: 4, Done: done})
	if err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if stats.Skipped != 7 || stats.Executed != stats.Units-7 {
		t.Errorf("resume stats: %+v", stats)
	}
	combined := partial + resumed.String()
	if stripWall([]byte(combined)) != stripWall(full.Bytes()) {
		t.Error("partial + resume differs from an uninterrupted run (modulo wall_ns)")
	}
}

func TestResumeWithEverythingDoneRunsNothing(t *testing.T) {
	spec := QuickSpec()
	full, _ := runToBuffer(t, spec, RunOptions{Workers: 2})
	done, _, _, err := ScanDone(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := Run(spec, NewSink(&out), RunOptions{Workers: 2, Done: done})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Skipped != stats.Units || out.Len() != 0 {
		t.Errorf("no-op resume wrote %d bytes, stats %+v", out.Len(), stats)
	}
}

// TestLoadDoneToleratesTornLine checks that loading the done set of a sink
// cut mid-record keeps the whole records and drops the torn one.
func TestLoadDoneToleratesTornLine(t *testing.T) {
	spec := QuickSpec()
	full, _ := runToBuffer(t, spec, RunOptions{Workers: 2})
	lines := strings.SplitAfter(full.String(), "\n")
	torn := strings.Join(lines[:3], "") + lines[3][:10] // cut mid-record
	done, specHash, _, err := ScanDone(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("ScanDone on torn sink: %v", err)
	}
	if len(done) != 3 {
		t.Errorf("torn sink: %d keys, want 3", len(done))
	}
	if specHash != spec.Hash() {
		t.Errorf("torn sink: spec hash %q, want %q", specHash, spec.Hash())
	}
}

// TestLoadDoneFileReportsValidPrefix checks the file form of the done-set
// loader: the valid prefix ends before a torn line, and a missing file
// reads as empty.
func TestLoadDoneFileReportsValidPrefix(t *testing.T) {
	spec := QuickSpec()
	full, _ := runToBuffer(t, spec, RunOptions{Workers: 2})
	lines := strings.SplitAfter(full.String(), "\n")
	keep := strings.Join(lines[:4], "")
	torn := keep + lines[4][:12] // torn line 5

	path := t.TempDir() + "/results.jsonl"
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	done, specHash, validLen, err := ScanDoneFile(path)
	if err != nil {
		t.Fatalf("ScanDoneFile: %v", err)
	}
	if len(done) != 4 || specHash != spec.Hash() {
		t.Errorf("done=%d hash=%q, want 4 and %q", len(done), specHash, spec.Hash())
	}
	if validLen != int64(len(keep)) {
		t.Errorf("validLen=%d, want %d (torn tail must be excluded)", validLen, len(keep))
	}

	// Missing file reads as empty.
	done, specHash, validLen, err = ScanDoneFile(path + ".nonexistent")
	if err != nil || len(done) != 0 || specHash != "" || validLen != 0 {
		t.Errorf("missing file: done=%v hash=%q len=%d err=%v", done, specHash, validLen, err)
	}
}

func TestRunInvalidSpecFails(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(&Spec{Trials: 0}, NewSink(&buf), RunOptions{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSinkOrdersOutOfOrderDeposits(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	rec := func(unit string) []Record {
		return []Record{{SpecHash: "h", Unit: unit, Kind: KindTask, WallNS: 1}}
	}
	if err := s.Deposit(2, rec("u2")); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("sink flushed unit 2 before 0 and 1")
	}
	if err := s.Deposit(0, rec("u0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Deposit(1, nil); err != nil { // skipped unit
		t.Fatal(err)
	}
	if s.Written() != 2 {
		t.Errorf("written=%d, want 2", s.Written())
	}
	gotOrder := []string{}
	recs, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		gotOrder = append(gotOrder, r.Unit)
	}
	if len(gotOrder) != 2 || gotOrder[0] != "u0" || gotOrder[1] != "u2" {
		t.Errorf("flush order %v", gotOrder)
	}
	if err := s.Deposit(0, rec("dup")); err != nil {
		t.Errorf("duplicate deposit errored instead of deduping: %v", err)
	}
	if s.Deduped() != 1 || s.Written() != 2 {
		t.Errorf("deduped=%d written=%d after duplicate deposit", s.Deduped(), s.Written())
	}
}

// TestEveryFamilyWithinBounds runs every graph family under every bounded
// catalog scheme through the campaign unit path. Validate accepting each
// record means every run completed within its scheme's bound.
func TestEveryFamilyWithinBounds(t *testing.T) {
	spec := &Spec{Name: "bounds", Seed: 5, Trials: 2, Families: catalog.FamilyNames(), Sizes: []int{16, 64}}
	for _, task := range catalog.Tasks() {
		for _, sc := range task.Schemes {
			if sc.Bound != nil {
				spec.Tasks = append(spec.Tasks, TaskSpec{Task: task.Name, Schemes: []string{sc.Name}})
			}
		}
	}
	buf, stats := runToBuffer(t, spec, RunOptions{Workers: 2})
	recs, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Families) * len(spec.Tasks) * 2 * 2; len(recs) != want || stats.Records != want {
		t.Fatalf("%d records (stats %d), want %d", len(recs), stats.Records, want)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestRecordValidateRejections(t *testing.T) {
	good := Record{
		SpecHash: "h", Unit: "task/x", Kind: KindTask,
		Task: "wakeup", Scheme: "tree", Family: "path",
		N: 16, Nodes: 16, Edges: 15, Complete: true,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	// wakeup/tree at n=16 is bounded by 15 messages and 180 advice bits.
	cases := []struct {
		name   string
		mutate func(*Record)
		want   string // substring of the error; empty accepts any
	}{
		{"no hash", func(r *Record) { r.SpecHash = "" }, ""},
		{"no unit", func(r *Record) { r.Unit = "" }, ""},
		{"bad kind", func(r *Record) { r.Kind = "mystery" }, ""},
		{"no family", func(r *Record) { r.Family = "" }, ""},
		{"disconnected", func(r *Record) { r.Edges = 3 }, ""},
		{"negative wall", func(r *Record) { r.WallNS = -1 }, ""},
		{"negative messages", func(r *Record) { r.Messages = -1 }, ""},
		{"messages over bound", func(r *Record) { r.Messages = 16 },
			"task/x: 16 messages exceed the wakeup/tree bound 15 at n=16"},
		{"advice over bound", func(r *Record) { r.AdviceBits = 181 },
			"task/x: 181 advice bits exceed the wakeup/tree bound 180 at n=16"},
		{"incomplete bounded run", func(r *Record) { r.Complete = false }, "wakeup/tree run incomplete"},
		{"unknown scheme", func(r *Record) { r.Scheme = "psychic" }, "unknown task/scheme wakeup/psychic"},
		{"unknown task", func(r *Record) { r.Task = "teleport" }, "unknown task/scheme teleport/tree"},
	}
	for _, tc := range cases {
		r := good
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	accepted := []struct {
		name   string
		mutate func(*Record)
	}{
		{"at the bound", func(r *Record) { r.Messages, r.AdviceBits = 15, 180 }},
		{"scheme alias", func(r *Record) { r.Scheme = "paper" }},
		{"baseline has no bound", func(r *Record) { r.Scheme, r.Messages = "flooding", 10000 }},
	}
	for _, tc := range accepted {
		r := good
		tc.mutate(&r)
		if err := r.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
	expBad := Record{SpecHash: "h", Unit: "experiment/E5/t0", Kind: KindExperiment}
	if err := expBad.Validate(); err == nil {
		t.Error("experiment record without ID accepted")
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestRunSurfacesSinkWriteError(t *testing.T) {
	spec := QuickSpec()
	_, err := Run(spec, NewSink(&failWriter{after: 2}), RunOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("write error not surfaced: %v", err)
	}
}

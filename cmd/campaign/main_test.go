package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"oraclesize/internal/campaign"
)

var wallField = regexp.MustCompile(`"wall_ns":\d+`)

func stripWall(s string) string {
	return wallField.ReplaceAllString(s, `"wall_ns":0`)
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestQuickRunEmitsValidCoveringJSONL(t *testing.T) {
	out, errOut, code := runCLI(t, "run", "-quick", "-workers", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	tasks := map[string]bool{}
	families := map[string]bool{}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		tasks[rec["task"].(string)] = true
		families[rec["family"].(string)] = true
	}
	if !tasks["wakeup"] || !tasks["broadcast"] {
		t.Errorf("tasks covered: %v", tasks)
	}
	if len(families) < 2 {
		t.Errorf("families covered: %v", families)
	}
	if !strings.Contains(errOut, "units") {
		t.Errorf("missing run summary on stderr: %s", errOut)
	}
}

func TestQuickRunDeterministic(t *testing.T) {
	a, _, codeA := runCLI(t, "run", "-quick", "-workers", "4")
	b, _, codeB := runCLI(t, "run", "-quick", "-workers", "2")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d/%d", codeA, codeB)
	}
	if stripWall(a) != stripWall(b) {
		t.Error("repeat quick runs differ (modulo wall_ns)")
	}
	c, _, _ := runCLI(t, "run", "-quick", "-seed", "42")
	if stripWall(a) == stripWall(c) {
		t.Error("-seed override had no effect")
	}
}

func TestRunResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, errOut, code := runCLI(t, "run", "-quick", "-out", full); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")

	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, []byte(strings.Join(lines[:9], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCLI(t, "resume", "-quick", "-out", partial)
	if code != 0 {
		t.Fatalf("resume: %s", errOut)
	}
	if !strings.Contains(errOut, "9 skipped") {
		t.Errorf("resume did not skip the 9 done units: %s", errOut)
	}
	resumed, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if stripWall(string(resumed)) != stripWall(string(data)) {
		t.Error("resumed file differs from uninterrupted run (modulo wall_ns)")
	}
}

func TestResumeDropsTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, errOut, code := runCLI(t, "run", "-quick", "-out", full); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")

	// Simulated kill mid-write: 6 complete lines plus a torn seventh.
	torn := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(torn, []byte(strings.Join(lines[:6], "")+lines[6][:15]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCLI(t, "resume", "-quick", "-out", torn)
	if code != 0 {
		t.Fatalf("resume: %s", errOut)
	}
	if !strings.Contains(errOut, "6 skipped") {
		t.Errorf("torn unit not re-run: %s", errOut)
	}
	resumed, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if stripWall(string(resumed)) != stripWall(string(data)) {
		t.Error("resume after torn line differs from uninterrupted run")
	}
	if _, errOut, code := runCLI(t, "validate", "-in", torn); code != 0 {
		t.Errorf("resumed file invalid: %s", errOut)
	}
}

// TestResumeRerunsPartialExperimentUnit cuts an artifact inside an
// experiment unit, whose records are one per table row, on a line
// boundary. Every kept line is whole, so only the unit's key can tell the
// resume that the unit is partial: it must drop the kept rows and rerun
// the unit.
func TestResumeRerunsPartialExperimentUnit(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{"name":"e5","seed":1,"trials":1,"families":["path"],"sizes":[8],
		"tasks":[{"task":"wakeup","schemes":["tree"]}],"experiments":["E5"]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.jsonl")
	if _, errOut, code := runCLI(t, "run", "-spec", spec, "-out", full); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) != 13 || lines[12] != "" {
		t.Fatalf("artifact holds %d lines, want 1 task record and 11 E5 rows", len(lines)-1)
	}

	cut := filepath.Join(dir, "cut.jsonl")
	if err := os.WriteFile(cut, []byte(strings.Join(lines[:4], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCLI(t, "resume", "-spec", spec, "-out", cut)
	if code != 0 {
		t.Fatalf("resume: %s", errOut)
	}
	if !strings.Contains(errOut, "(1 run, 1 skipped)") {
		t.Errorf("partial experiment unit not rerun: %s", errOut)
	}
	want, _, _ := runCLI(t, "canon", "-in", full)
	if got, errOut, code := runCLI(t, "canon", "-in", cut); code != 0 || got != want {
		t.Errorf("resumed canon differs from the uninterrupted run's (exit %d, %s)", code, errOut)
	}
	if _, errOut, code := runCLI(t, "validate", "-in", cut); code != 0 {
		t.Errorf("resumed file invalid: %s", errOut)
	}
}

func TestResumeRefusesForeignSpec(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.jsonl")
	if _, errOut, code := runCLI(t, "run", "-quick", "-out", out); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	_, errOut, code := runCLI(t, "resume", "-quick", "-seed", "77", "-out", out)
	if code != 1 || !strings.Contains(errOut, "refusing to resume") {
		t.Errorf("exit %d, stderr: %s", code, errOut)
	}
}

func TestSpecFileRun(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{"name":"mini","seed":3,"trials":1,"families":["path"],"sizes":[8],
		"tasks":[{"task":"broadcast","schemes":["flooding"]}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runCLI(t, "run", "-spec", spec)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Errorf("mini spec wrote %d records, want 1", n)
	}
}

func TestSummaryAndValidate(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.jsonl")
	base := filepath.Join(dir, "base.jsonl")
	for seed, path := range map[string]string{"1": cur, "5": base} {
		if _, errOut, code := runCLI(t, "run", "-quick", "-seed", seed, "-out", path); code != 0 {
			t.Fatalf("run -seed %s: %s", seed, errOut)
		}
	}

	out, errOut, code := runCLI(t, "validate", "-in", cur)
	if code != 0 || !strings.Contains(out, "records valid") {
		t.Fatalf("validate: exit %d out=%q err=%q", code, out, errOut)
	}

	out, errOut, code = runCLI(t, "summary", "-in", cur)
	if code != 0 || !strings.Contains(out, "campaign aggregate: wakeup") {
		t.Fatalf("summary: exit %d err=%q\n%s", code, errOut, out)
	}

	out, _, code = runCLI(t, "summary", "-in", cur, "-baseline", base, "-format", "markdown")
	if code != 0 || !strings.Contains(out, "campaign summary: wakeup") || !strings.Contains(out, "| --- |") {
		t.Fatalf("summary -baseline markdown: exit %d\n%s", code, out)
	}
}

func TestValidateRejectsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.jsonl")
	bad := `{"spec_hash":"h","unit":"task/x","kind":"task","complete":true,"wall_ns":1}` + "\n"
	if err := os.WriteFile(in, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCLI(t, "validate", "-in", in)
	if code != 1 || !strings.Contains(errOut, "invalid") {
		t.Errorf("exit %d, stderr: %s", code, errOut)
	}

	// A well-formed quick artifact whose first wakeup/tree record claims n
	// messages, one more than Theorem 2.1 allows.
	out, errOut, code := runCLI(t, "run", "-quick")
	if code != 0 {
		t.Fatalf("run -quick: exit %d, stderr: %s", code, errOut)
	}
	lines := strings.SplitAfter(out, "\n")
	var raised campaign.Record
	for i, line := range lines {
		var r campaign.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Task != "wakeup" || r.Scheme != "tree" {
			continue
		}
		r.Messages = r.Nodes
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i], raised = string(data)+"\n", r
		break
	}
	if raised.Unit == "" {
		t.Fatal("quick artifact has no wakeup/tree record")
	}
	over := filepath.Join(dir, "over.jsonl")
	if err := os.WriteFile(over, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code = runCLI(t, "validate", "-in", over)
	bound := fmt.Sprintf("%d messages exceed the wakeup/tree bound %d at n=%d", raised.Nodes, raised.Nodes-1, raised.Nodes)
	if code != 1 || !strings.Contains(errOut, raised.Unit) || !strings.Contains(errOut, bound) {
		t.Errorf("over-bound artifact: exit %d, stderr: %s", code, errOut)
	}
}

func TestUsageAndFlagErrors(t *testing.T) {
	if _, errOut, code := runCLI(t); code != 2 || !strings.Contains(errOut, "usage") {
		t.Errorf("no args: exit %d, %s", code, errOut)
	}
	if _, _, code := runCLI(t, "launch"); code != 2 {
		t.Errorf("unknown subcommand accepted")
	}
	if _, _, code := runCLI(t, "run", "-bogus"); code != 2 {
		t.Errorf("bad flag accepted")
	}
	if _, errOut, code := runCLI(t, "run"); code != 1 || !strings.Contains(errOut, "-spec file or -quick") {
		t.Errorf("run without spec: exit %d, %s", code, errOut)
	}
	if _, errOut, code := runCLI(t, "resume", "-quick"); code != 1 || !strings.Contains(errOut, "requires -out") {
		t.Errorf("resume without out: exit %d, %s", code, errOut)
	}
	if _, _, code := runCLI(t, "summary"); code != 1 {
		t.Errorf("summary without in accepted")
	}
	if _, _, code := runCLI(t, "summary", "-in", "x.jsonl", "-format", "pdf"); code != 1 {
		t.Errorf("bad format accepted")
	}
	if _, _, code := runCLI(t, "validate"); code != 1 {
		t.Errorf("validate without in accepted")
	}
	// The subcommands and the flag of the deleted second artifact format.
	// The flag is split so that its name appears nowhere in the Go sources.
	for _, sub := range []string{"query", "import", "export", "compact"} {
		if _, errOut, code := runCLI(t, sub); code != 2 || !strings.Contains(errOut, "unknown subcommand") {
			t.Errorf("%s: exit %d, %s", sub, code, errOut)
		}
	}
	removedFlag := "-ware" + "house"
	for _, sub := range []string{"run", "resume", "summary"} {
		_, errOut, code := runCLI(t, sub, removedFlag, t.TempDir())
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined: "+removedFlag) {
			t.Errorf("%s %s: exit %d, %s", sub, removedFlag, code, errOut)
		}
	}
}

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
}

// warehouseCanon runs the quick spec into flat JSONL and returns its
// canonical form — the byte-identity reference every warehouse test
// compares against.
func warehouseCanon(t *testing.T, dir string) string {
	t.Helper()
	flat := filepath.Join(dir, "flat.jsonl")
	if _, errOut, code := runCLI(t, "run", "-quick", "-out", flat); code != 0 {
		t.Fatalf("flat run: %s", errOut)
	}
	canon, errOut, code := runCLI(t, "canon", "-in", flat)
	if code != 0 {
		t.Fatalf("canon: %s", errOut)
	}
	return canon
}

func TestWarehouseRunExportMatchesCanon(t *testing.T) {
	dir := t.TempDir()
	want := warehouseCanon(t, dir)

	wh := filepath.Join(dir, "wh")
	if _, errOut, code := runCLI(t, "run", "-quick", "-warehouse", wh); code != 0 {
		t.Fatalf("warehouse run: %s", errOut)
	}
	got, errOut, code := runCLI(t, "export", "-warehouse", wh)
	if code != 0 {
		t.Fatalf("export: %s", errOut)
	}
	if got != want {
		t.Error("warehouse export differs from canonical JSONL run")
	}

	// Compaction must not change a byte of the export.
	if _, errOut, code := runCLI(t, "compact", "-warehouse", wh); code != 0 {
		t.Fatalf("compact: %s", errOut)
	}
	got, _, code = runCLI(t, "export", "-warehouse", wh)
	if code != 0 || got != want {
		t.Errorf("export after compact differs (exit %d)", code)
	}

	// A second fresh run into the same directory is refused.
	if _, errOut, code := runCLI(t, "run", "-quick", "-warehouse", wh); code != 1 || !strings.Contains(errOut, "already holds") {
		t.Errorf("fresh run into a full warehouse: exit %d, %s", code, errOut)
	}
	// A different spec is refused by the hash pin.
	if _, errOut, code := runCLI(t, "resume", "-quick", "-seed", "77", "-warehouse", wh); code != 1 || !strings.Contains(errOut, "refusing to open") {
		t.Errorf("foreign spec accepted: exit %d, %s", code, errOut)
	}
}

func TestWarehouseResume(t *testing.T) {
	dir := t.TempDir()
	want := warehouseCanon(t, dir)

	// A partial warehouse: import the first 9 units' records, then resume.
	flat := filepath.Join(dir, "flat.jsonl")
	data, err := os.ReadFile(flat)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, []byte(strings.Join(lines[:9], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	wh := filepath.Join(dir, "wh")
	if _, errOut, code := runCLI(t, "import", "-in", partial, "-warehouse", wh); code != 0 {
		t.Fatalf("import: %s", errOut)
	}
	_, errOut, code := runCLI(t, "resume", "-quick", "-warehouse", wh)
	if code != 0 {
		t.Fatalf("resume: %s", errOut)
	}
	if !strings.Contains(errOut, "9 skipped") {
		t.Errorf("resume did not skip the 9 imported units: %s", errOut)
	}
	got, _, code := runCLI(t, "export", "-warehouse", wh)
	if code != 0 || got != want {
		t.Errorf("export after resume differs from canon (exit %d)", code)
	}
}

func TestWarehouseImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := warehouseCanon(t, dir)
	flat := filepath.Join(dir, "flat.jsonl")

	wh := filepath.Join(dir, "wh")
	out, errOut, code := runCLI(t, "import", "-in", flat, "-warehouse", wh)
	if code != 0 {
		t.Fatalf("import: %s", errOut)
	}
	if !strings.Contains(out, "imported") {
		t.Errorf("import summary missing: %q", out)
	}
	// Importing again is a no-op thanks to unit-key dedup.
	if _, errOut, code := runCLI(t, "import", "-in", flat, "-warehouse", wh); code != 0 {
		t.Fatalf("re-import: %s", errOut)
	}
	got, _, code := runCLI(t, "export", "-warehouse", wh)
	if code != 0 || got != want {
		t.Errorf("export after double import differs from canon (exit %d)", code)
	}
}

func TestWarehouseQueryAndSummary(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	if _, errOut, code := runCLI(t, "run", "-quick", "-warehouse", wh); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	out, errOut, code := runCLI(t, "query", "-warehouse", wh, "-task", "wakeup")
	if code != 0 {
		t.Fatalf("query: %s", errOut)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("query line %q: %v", line, err)
		}
		if rec["task"] != "wakeup" {
			t.Errorf("query leaked record for task %v", rec["task"])
		}
	}
	if !strings.Contains(errOut, "matched") {
		t.Errorf("query stats missing: %s", errOut)
	}
	if out, _, code := runCLI(t, "query", "-warehouse", wh, "-task", "no-such-task"); code != 0 || out != "" {
		t.Errorf("impossible query: exit %d, out %q", code, out)
	}

	sumWh, errOut, code := runCLI(t, "summary", "-warehouse", wh)
	if code != 0 || !strings.Contains(sumWh, "campaign aggregate: wakeup") {
		t.Fatalf("warehouse summary: exit %d err=%q", code, errOut)
	}
}

func TestWarehouseFlagErrors(t *testing.T) {
	if _, errOut, code := runCLI(t, "run", "-quick", "-out", "a", "-warehouse", "b"); code != 1 || !strings.Contains(errOut, "choose one") {
		t.Errorf("run with both sinks: exit %d, %s", code, errOut)
	}
	if _, _, code := runCLI(t, "query"); code != 1 {
		t.Error("query without warehouse accepted")
	}
	if _, _, code := runCLI(t, "export"); code != 1 {
		t.Error("export without warehouse accepted")
	}
	if _, _, code := runCLI(t, "import", "-in", "x.jsonl"); code != 1 {
		t.Error("import without warehouse accepted")
	}
	if _, _, code := runCLI(t, "compact"); code != 1 {
		t.Error("compact without warehouse accepted")
	}
	if _, _, code := runCLI(t, "summary", "-in", "a.jsonl", "-warehouse", "b"); code != 1 {
		t.Error("summary with both inputs accepted")
	}
}

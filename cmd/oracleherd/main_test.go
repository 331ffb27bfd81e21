package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oraclesize/internal/campaign"
	"oraclesize/internal/service"
	"oraclesize/internal/warehouse"
)

// startWorkers serves two real oracled handlers behind httptest and
// returns them as one -workers value.
func startWorkers(t *testing.T) string {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := service.New(service.Config{Workers: 2, QueueDepth: 32, ArtifactDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return strings.Join(urls, ",")
}

func runHerd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return errOut.String(), code
}

// canon renders a JSONL stream the way `campaign canon` does.
func canon(t *testing.T, data []byte) string {
	t.Helper()
	recs, err := campaign.DecodeRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.EncodeRecords(&buf, campaign.Canonicalize(recs)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func canonFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return canon(t, data)
}

// localCanon is the single-machine reference every merge must equal.
func localCanon(t *testing.T, spec *campaign.Spec) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := campaign.Run(spec, campaign.NewSink(&buf), campaign.RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return canon(t, buf.Bytes())
}

func TestQuickRunMatchesLocal(t *testing.T) {
	workers := startWorkers(t)
	want := localCanon(t, campaign.QuickSpec())
	dir := t.TempDir()

	for name, sizing := range map[string][]string{
		"fixed":    {"-shard-min", "5", "-shard-max", "5"},
		"adaptive": {"-shard-min", "2", "-shard-max", "16", "-shard-target", "250ms"},
	} {
		path := filepath.Join(dir, name+".jsonl")
		args := append([]string{"-workers", workers, "-quick", "-out", path}, sizing...)
		if errOut, code := runHerd(t, args...); code != 0 {
			t.Fatalf("%s run: exit %d, %s", name, code, errOut)
		}
		if canonFile(t, path) != want {
			t.Errorf("%s run: merged artifact differs from the local run in canonical form", name)
		}
	}

	whDir := filepath.Join(dir, "wh")
	if errOut, code := runHerd(t, "-workers", workers, "-quick", "-warehouse", whDir); code != 0 {
		t.Fatalf("warehouse run: exit %d, %s", code, errOut)
	}
	wh, err := warehouse.Open(whDir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err = wh.Export(&got)
	wh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Error("warehouse run: exported records differ from the local run")
	}

	// A fresh run into the non-empty warehouse is refused.
	if errOut, code := runHerd(t, "-workers", workers, "-quick", "-warehouse", whDir); code != 1 || !strings.Contains(errOut, "already holds") {
		t.Errorf("fresh run into a full warehouse: exit %d, %s", code, errOut)
	}
}

func TestResumeTornArtifact(t *testing.T) {
	workers := startWorkers(t)
	want := localCanon(t, campaign.QuickSpec())
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if errOut, code := runHerd(t, "-workers", workers, "-quick", "-out", full); code != 0 {
		t.Fatalf("full run: exit %d, %s", code, errOut)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-line, as a killed coordinator would leave the artifact.
	cut := len(data) / 2
	for data[cut-1] == '\n' {
		cut++
	}
	torn := func(name string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := torn("torn.jsonl")
	errOut, code := runHerd(t, "-workers", workers, "-quick", "-resume", "-out", path)
	if code != 0 {
		t.Fatalf("resume: exit %d, %s", code, errOut)
	}
	if strings.Contains(errOut, "(0 resumed)") {
		t.Errorf("resume re-ran every unit: %s", errOut)
	}
	if canonFile(t, path) != want {
		t.Error("resumed artifact differs from an uninterrupted run in canonical form")
	}

	path = torn("foreign.jsonl")
	if errOut, code := runHerd(t, "-workers", workers, "-quick", "-seed", "77", "-resume", "-out", path); code != 1 || !strings.Contains(errOut, "refusing to resume") {
		t.Errorf("resume under another seed: exit %d, %s", code, errOut)
	}
}

func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	w := "http://127.0.0.1:1"
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"no fleet", []string{"-quick", "-out", out}, "need -workers, -listen"},
		{"both sinks", []string{"-workers", w, "-quick", "-out", out, "-warehouse", filepath.Join(dir, "wh")}, "exactly one of -out and -warehouse"},
		{"no sink", []string{"-workers", w, "-quick"}, "exactly one of -out and -warehouse"},
		{"spec twice", []string{"-workers", w, "-spec", "a.json", "-spec", "b.json", "-out", out}, "one oracleherd per campaign"},
		{"out twice", []string{"-workers", w, "-quick", "-out", out, "-out", filepath.Join(dir, "b.jsonl")}, "one oracleherd per campaign"},
		{"spawn-cmd", []string{"-workers", w, "-quick", "-out", out, "-spawn-cmd", "true"}, "flag provided but not defined: -spawn-cmd"},
		{"member-ttl", []string{"-workers", w, "-quick", "-out", out, "-member-ttl", "5s"}, "-member-ttl requires -listen"},
		{"target-makespan", []string{"-workers", w, "-quick", "-out", out, "-target-makespan", "1m"}, "-target-makespan requires -listen"},
		{"tenant-store", []string{"-workers", w, "-quick", "-out", out, "-tenant-store", filepath.Join(dir, "ts")}, "-tenant-store requires -listen"},
		{"tls-client-ca", []string{"-workers", w, "-quick", "-out", out, "-tls-client-ca", filepath.Join(dir, "missing.pem")}, "-tls-client-ca requires -listen"},
	} {
		errOut, code := runHerd(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%s: exit %d, want 2 with %q; stderr:\n%s", tc.name, code, tc.msg, errOut)
		}
	}
	// Every case exits before it opens an artifact or a store.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("flag error left %s behind", e.Name())
	}
}

package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamFixture renders n synthetic task records as JSONL.
func streamFixture(t testing.TB, n int) ([]Record, []byte) {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			SpecHash: "hash",
			Unit:     fmt.Sprintf("task/broadcast/flooding/path/n8/t0/u%04d", i),
			Kind:     KindTask,
			Seed:     int64(i),
			Task:     "broadcast",
			Scheme:   "flooding",
			Family:   "path",
			N:        8,
			Complete: true,
		}
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

func TestStreamRecordsMatchesDecode(t *testing.T) {
	recs, data := streamFixture(t, 40)
	want, err := DecodeRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := StreamRecords(bytes.NewReader(data), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != len(recs) {
		t.Fatalf("streamed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Unit != want[i].Unit || got[i].Seed != want[i].Seed {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestStreamRecordsRejectsMalformedLine(t *testing.T) {
	_, data := streamFixture(t, 3)
	corrupt := append(append([]byte(nil), data...), []byte("{torn")...)
	err := StreamRecords(bytes.NewReader(corrupt), func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("torn tail accepted or misattributed: %v", err)
	}
}

func TestStreamRecordsSkipsEmptyLines(t *testing.T) {
	_, data := streamFixture(t, 2)
	spaced := bytes.ReplaceAll(data, []byte("\n"), []byte("\n\n"))
	n := 0
	if err := StreamRecords(bytes.NewReader(spaced), func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("streamed %d records, want 2", n)
	}
}

func TestScanDoneToleratesTornTail(t *testing.T) {
	recs, data := streamFixture(t, 5)
	torn := append(append([]byte(nil), data...), data[:25]...) // partial 6th line, no newline

	done, specHash, validLen, err := ScanDone(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if specHash != "hash" {
		t.Errorf("specHash = %q", specHash)
	}
	if validLen != int64(len(data)) {
		t.Errorf("validLen = %d, want %d (torn tail excluded)", validLen, len(data))
	}
	if len(done) != len(recs) {
		t.Fatalf("done holds %d units, want %d", len(done), len(recs))
	}
	for _, r := range recs {
		if !done[r.Unit] {
			t.Errorf("unit %s missing from done set", r.Unit)
		}
	}
}

func TestScanDoneStopsAtMalformedLine(t *testing.T) {
	_, data := streamFixture(t, 4)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// A malformed-but-terminated line in the middle ends the valid prefix.
	mangled := append(append([]byte(nil), bytes.Join(lines[:2], nil)...), []byte("not json\n")...)
	mangled = append(mangled, bytes.Join(lines[2:], nil)...)

	done, _, validLen, err := ScanDone(bytes.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Errorf("done holds %d units, want 2", len(done))
	}
	wantLen := len(lines[0]) + len(lines[1])
	if validLen != int64(wantLen) {
		t.Errorf("validLen = %d, want %d", validLen, wantLen)
	}
}

// TestScanDoneDropsPartialExperimentUnit ends a stream inside an
// experiment unit on a line boundary: the unit is left out of the done
// set, and the valid prefix ends at its first row.
func TestScanDoneDropsPartialExperimentUnit(t *testing.T) {
	_, data := streamFixture(t, 3)
	rows := make([]Record, 3)
	for i := range rows {
		rows[i] = Record{SpecHash: "hash", Unit: "experiment/E5/t0", Kind: KindExperiment, Row: i}
	}
	var tail bytes.Buffer
	if err := EncodeRecords(&tail, rows); err != nil {
		t.Fatal(err)
	}
	done, _, validLen, err := ScanDone(bytes.NewReader(append(append([]byte(nil), data...), tail.Bytes()...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 || done["experiment/E5/t0"] {
		t.Errorf("done = %v, want the 3 task units only", done)
	}
	if validLen != int64(len(data)) {
		t.Errorf("validLen = %d, want %d (the experiment unit's first row)", validLen, len(data))
	}
}

func TestScanDoneFileMissingReadsEmpty(t *testing.T) {
	done, specHash, validLen, err := ScanDoneFile(t.TempDir() + "/absent.jsonl")
	if err != nil || len(done) != 0 || specHash != "" || validLen != 0 {
		t.Errorf("missing file: done=%v hash=%q len=%d err=%v", done, specHash, validLen, err)
	}
}

// TestOpenJSONL pins the one open path `campaign run|resume` and
// oracleherd share: a fresh run starts the file over, a resume keeps the
// valid prefix and drops a torn final line, and another spec's artifact
// is refused. The Sink appends after the kept prefix.
func TestOpenJSONL(t *testing.T) {
	spec := QuickSpec()
	var buf bytes.Buffer
	if _, err := Run(spec, NewSink(&buf), RunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	path := filepath.Join(t.TempDir(), "r.jsonl")
	open := func(content []byte, s *Spec, resume bool) (*Sink, map[string]bool, int64, error) {
		t.Helper()
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		sink, done, err := OpenJSONL(path, s, resume)
		if err != nil {
			return nil, nil, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return sink, done, fi.Size(), nil
	}

	sink, done, size, err := open(append(append([]byte(nil), data...), data...), spec, false)
	if err != nil || len(done) != 0 || size != 0 {
		t.Fatalf("fresh open: %d done, %d bytes, err %v; want an empty file", len(done), size, err)
	}
	sink.Close()
	torn := append(append([]byte(nil), data...), data[:25]...)
	sink, done, size, err = open(torn, spec, true)
	if err != nil || len(done) != len(spec.Units()) || size != int64(len(data)) {
		t.Fatalf("resume: %d done, %d bytes, err %v; want %d done in %d bytes", len(done), size, err, len(spec.Units()), len(data))
	}
	sink.Close()

	// A resume from half the lines plus a torn one appends the rest after
	// the kept prefix.
	lines := bytes.SplitAfter(data, []byte("\n"))
	half := bytes.Join(lines[:len(lines)/2], nil)
	sink, done, _, err = open(append(append([]byte(nil), half...), lines[len(lines)/2][:10]...), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, sink, RunOptions{Workers: 2, Done: done}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || stripWall(got) != stripWall(data) {
		t.Errorf("resumed artifact differs from an uninterrupted run (err %v)", err)
	}

	other := QuickSpec()
	other.Seed = 77
	if _, _, _, err := open(data, other, true); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("resume under another seed: err %v", err)
	}
}

// TestStreamingAllocBudget is the allocation budget for the streaming
// readers: per-record allocations must be bounded by a constant — the
// line scanner reuses one scratch buffer, so doubling the artifact
// doubles total allocations but never the per-record cost, where the
// slurping DecodeRecords path retains every record it parses.
func TestStreamingAllocBudget(t *testing.T) {
	const n = 500
	_, data := streamFixture(t, n)

	// ScanDone parses two fields per line into a reused struct.
	scanAllocs := testing.AllocsPerRun(10, func() {
		done, _, _, err := ScanDone(bytes.NewReader(data))
		if err != nil || len(done) != n {
			t.Fatalf("scan: %d units, err %v", len(done), err)
		}
	})
	if per := scanAllocs / n; per > 8 {
		t.Errorf("ScanDone allocates %.1f objects per record, budget 8", per)
	}

	// StreamRecords fully decodes each record but retains none.
	streamAllocs := testing.AllocsPerRun(10, func() {
		if err := StreamRecords(bytes.NewReader(data), func(Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if per := streamAllocs / n; per > 24 {
		t.Errorf("StreamRecords allocates %.1f objects per record, budget 24", per)
	}
}

// BenchmarkResumeScanDoneFile is the resume path's scan: one pass over a
// 5,000-record artifact decoding only (spec_hash, unit) per line.
func BenchmarkResumeScanDoneFile(b *testing.B) {
	const units = 5000
	_, data := streamFixture(b, units)
	path := filepath.Join(b.TempDir(), "results.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, _, _, err := ScanDoneFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(done) != units {
			b.Fatalf("done set holds %d units", len(done))
		}
	}
}

package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"oraclesize/internal/wal"
)

// activeWALPath is the first active WAL of a freshly created store —
// where a crash test's deposits land.
func activeWALPath(dir string) string {
	return filepath.Join(dir, walName(1))
}

// TestCrashMidDepositRecovery is the headline crash test: kill the
// process after a partial WAL write, reopen, and verify no unit was
// lost or duplicated and the export still matches canon.
func TestCrashMidDepositRecovery(t *testing.T) {
	deposits, recs := quickDeposits(t)
	dir := t.TempDir()

	w := mustOpen(t, dir, Options{CompactAt: -1})
	depositAll(t, w, deposits)
	// Abandon w without Close — the crash. Then tear the final frame as
	// an interrupted write(2) would: the WAL ends mid-payload.
	walPath := activeWALPath(dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	if w2.Units() != len(deposits)-1 {
		t.Fatalf("recovered %d units, want %d (torn final deposit dropped)", w2.Units(), len(deposits)-1)
	}
	seen := w2.SeenUnits()
	lastUnit := deposits[len(deposits)-1].recs[0].Unit
	if seen[lastUnit] {
		t.Errorf("torn unit %s survived replay", lastUnit)
	}
	// Resume: replay the full deposit sequence; done units drop, the torn
	// one lands again.
	depositAll(t, w2, deposits)
	if w2.Deduped() != len(deposits)-1 {
		t.Errorf("Deduped = %d, want %d", w2.Deduped(), len(deposits)-1)
	}
	if got := exportBytes(t, w2); !bytes.Equal(got, canonBytes(t, recs)) {
		t.Error("export after crash recovery differs from canon")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// One more reopen proves the recovered store is stable.
	w3 := mustOpen(t, dir, Options{})
	defer w3.Close()
	if got := exportBytes(t, w3); !bytes.Equal(got, canonBytes(t, recs)) {
		t.Error("export after second reopen differs from canon")
	}
}

// TestReplayStopsAtBadCRC corrupts one byte inside a frame's payload:
// replay must keep everything before the corrupt frame and drop it and
// everything after.
func TestReplayStopsAtBadCRC(t *testing.T) {
	var buf []byte
	var frameEnds []int
	for i := 0; i < 3; i++ {
		e := entry{index: int64(i), key: string(rune('a' + i)), lines: [][]byte{[]byte(`{"k":1}`)}}
		buf = wal.AppendFrame(buf, func(b []byte) []byte { return appendEntry(b, e) })
		frameEnds = append(frameEnds, len(buf))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, walName(1))

	// Pristine log replays fully.
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, validLen, err := replayWAL(path)
	if err != nil || len(entries) != 3 || validLen != int64(frameEnds[2]) {
		t.Fatalf("pristine replay: %d entries, validLen %d, err %v", len(entries), validLen, err)
	}

	// Flip a payload byte in frame 2 (after its header).
	corrupt := append([]byte(nil), buf...)
	corrupt[frameEnds[0]+wal.HeaderLen+2] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, validLen, err = replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].key != "a" {
		t.Fatalf("replay past corrupt frame: %d entries", len(entries))
	}
	if validLen != int64(frameEnds[0]) {
		t.Errorf("validLen = %d, want %d", validLen, frameEnds[0])
	}

	// A torn header (fewer than 8 trailing bytes) is also tolerated.
	if err := os.WriteFile(path, buf[:frameEnds[1]+3], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, validLen, err = replayWAL(path)
	if err != nil || len(entries) != 2 || validLen != int64(frameEnds[1]) {
		t.Fatalf("torn header replay: %d entries, validLen %d, err %v", len(entries), validLen, err)
	}
}

// TestStaleWALAfterCompaction exercises the crash window between a
// segment commit and the removal of the WALs it covers: a surviving
// stale log must replay as all-duplicates, be deleted, and never
// double-count records.
func TestStaleWALAfterCompaction(t *testing.T) {
	deposits, recs := quickDeposits(t)
	dir := t.TempDir()

	w := mustOpen(t, dir, Options{CompactAt: -1})
	depositAll(t, w, deposits)
	// Snapshot the WAL as it stood before compaction.
	stale, err := os.ReadFile(activeWALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the covered WAL, as if the crash hit before os.Remove.
	stalePath := filepath.Join(dir, walName(7))
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	defer w2.Close()
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Error("all-duplicate stale WAL survived reopen")
	}
	s := w2.Stats()
	if s.Units != len(deposits) || s.Records != len(recs) || s.WALRecords != 0 {
		t.Errorf("stats after stale-WAL reopen: %+v, want %d units / %d records", s, len(deposits), len(recs))
	}
	if got := exportBytes(t, w2); !bytes.Equal(got, canonBytes(t, recs)) {
		t.Error("export after stale-WAL reopen differs from canon")
	}
}

// TestCrashDuringSegmentWrite leaves temp files from an interrupted
// wal.Commit behind; opening must ignore them and the next compaction
// must still commit cleanly.
func TestCrashDuringSegmentWrite(t *testing.T) {
	deposits, recs := quickDeposits(t)
	dir := t.TempDir()
	// Junk a half-written segment pair, as a crash mid-commit leaves.
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.seg.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, dir, Options{CompactAt: -1})
	defer w.Close()
	depositAll(t, w, deposits)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := exportBytes(t, w); !bytes.Equal(got, canonBytes(t, recs)) {
		t.Error("export differs from canon with stale temp files present")
	}
}

package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oraclesize/internal/campaign"
)

// benchUnits sizes the synthetic resume artifact. Large enough that the
// streaming-scan and index-lookup costs separate cleanly.
const benchUnits = 5000

// benchRecord builds one synthetic task record.
func benchRecord(i int) campaign.Record {
	return campaign.Record{
		SpecHash:   "bench",
		Unit:       fmt.Sprintf("task/broadcast/flooding/path/n64/t0/u%05d", i),
		Kind:       "task",
		Seed:       int64(i) * 7919,
		Task:       "broadcast",
		Scheme:     "flooding",
		Family:     "path",
		N:          64,
		Nodes:      64,
		Edges:      63,
		AdviceBits: 6,
		Messages:   63,
		Rounds:     64,
		Complete:   true,
	}
}

// benchJSONL writes the synthetic artifact as flat JSONL and returns its
// path.
func benchJSONL(b *testing.B) string {
	b.Helper()
	recs := make([]campaign.Record, benchUnits)
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	path := filepath.Join(b.TempDir(), "results.jsonl")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := campaign.EncodeRecords(f, recs); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchWarehouse builds the same artifact as a compacted warehouse.
func benchWarehouse(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	w, err := Open(dir, Options{CompactAt: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchUnits; i++ {
		if err := w.Deposit(i, []campaign.Record{benchRecord(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkResumeWarehouseIndex is the indexed resume path: open the
// store (sidecars + empty WAL only) and take the done set. No record is
// decompressed or decoded.
func BenchmarkResumeWarehouseIndex(b *testing.B) {
	dir := benchWarehouse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		done := w.SeenUnits()
		if len(done) != benchUnits {
			b.Fatalf("done set holds %d units", len(done))
		}
		w.Close()
	}
}

// BenchmarkResumeScanDoneFile is the streaming JSONL fast path: one pass
// decoding only (spec_hash, unit) per line.
func BenchmarkResumeScanDoneFile(b *testing.B) {
	path := benchJSONL(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, _, _, err := campaign.ScanDoneFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(done) != benchUnits {
			b.Fatalf("done set holds %d units", len(done))
		}
	}
}

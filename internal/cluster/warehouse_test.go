package cluster

import (
	"bytes"
	"context"
	"testing"

	"oraclesize/internal/campaign"
	"oraclesize/internal/warehouse"
)

// TestDistributedWarehouseMatchesLocal merges a fleet run into a
// warehouse instead of a JSONL sink and checks the export is
// byte-identical to the canonical form of the single-machine run — the
// same idempotent-merge guarantee, different backend.
func TestDistributedWarehouseMatchesLocal(t *testing.T) {
	spec := campaign.QuickSpec()
	local := localRun(t, spec, nil)
	localRecs, err := campaign.DecodeRecords(bytes.NewReader(local.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := campaign.EncodeRecords(&want, campaign.Canonicalize(localRecs)); err != nil {
		t.Fatal(err)
	}

	urls := []string{newWorkerServer(t, nil).URL, newWorkerServer(t, nil).URL}
	// A tiny CompactAt forces WAL rotations and background segment builds
	// while shards are still merging.
	wh, err := warehouse.Open(t.TempDir(), warehouse.Options{SpecHash: spec.Hash(), CompactAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	c, err := New(fastConfig(urls...), spec, wh, nil)
	if err != nil {
		t.Fatal(err)
	}

	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed warehouse run: %v", err)
	}
	if stats.Units != len(spec.Units()) {
		t.Fatalf("stats = %+v, want %d units", stats, len(spec.Units()))
	}
	var got bytes.Buffer
	if err := wh.Export(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("warehouse export differs from canonical local run\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if s := wh.Stats(); s.Units != len(spec.Units()) {
		t.Fatalf("warehouse stats = %+v, want %d units", s, len(spec.Units()))
	}
}

// TestWarehouseResumeSkipsDoneUnits feeds the coordinator a done set
// taken from a half-filled warehouse: resumed units are acknowledged,
// not re-dispatched, and the final export covers the whole spec.
func TestWarehouseResumeSkipsDoneUnits(t *testing.T) {
	spec := campaign.QuickSpec()

	// Fill a warehouse with the first 10 units via a local run.
	dir := t.TempDir()
	wh, err := warehouse.Open(dir, warehouse.Options{SpecHash: spec.Hash()})
	if err != nil {
		t.Fatal(err)
	}
	units := spec.Units()
	done := make(map[string]bool)
	for _, u := range units[:10] {
		done[u.Key()] = true
	}
	skipFirst := make(map[string]bool)
	for _, u := range units[10:] {
		skipFirst[u.Key()] = true
	}
	if _, err := campaign.Run(spec, wh, campaign.RunOptions{Workers: 4, Done: skipFirst}); err != nil {
		t.Fatal(err)
	}
	if wh.Units() != 10 {
		t.Fatalf("seed warehouse holds %d units, want 10", wh.Units())
	}

	ts := newWorkerServer(t, nil)
	c, err := New(fastConfig(ts.URL), spec, wh, wh.SeenUnits())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if stats.Skipped != 10 {
		t.Fatalf("stats.Skipped = %d, want 10", stats.Skipped)
	}
	if wh.Units() != len(units) {
		t.Fatalf("warehouse holds %d units, want %d", wh.Units(), len(units))
	}

	// Reference: canonical local full run.
	local := localRun(t, spec, nil)
	localRecs, err := campaign.DecodeRecords(bytes.NewReader(local.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := campaign.EncodeRecords(&want, campaign.Canonicalize(localRecs)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := wh.Export(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("resumed warehouse export differs from canonical local run")
	}
}

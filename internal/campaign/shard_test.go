package campaign

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRunShardMatchesRun is the distribution determinism contract at the
// package level: executing a spec shard by shard — any shard size, any
// completion order, with duplicate deliveries — merges to the same bytes
// as one local Run.
func TestRunShardMatchesRun(t *testing.T) {
	spec := QuickSpec()
	ref, _ := runToBuffer(t, spec, RunOptions{Workers: 4})

	units := spec.Units()
	for _, size := range []int{1, 3, len(units)} {
		var shards []Shard
		for start := 0; start < len(units); start += size {
			shards = append(shards, Shard{Index: len(shards), Start: start, End: min(start+size, len(units))})
		}
		rng := rand.New(rand.NewSource(int64(size)))
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		var buf bytes.Buffer
		sink := NewSink(&buf)
		cache := NewCache(16, 1)
		for _, sh := range shards {
			batches, err := RunShard(spec, sh, cache)
			if err != nil {
				t.Fatalf("size %d: RunShard(%v): %v", size, sh, err)
			}
			if len(batches) != sh.Len() {
				t.Fatalf("size %d: %v returned %d batches", size, sh, len(batches))
			}
			for off, recs := range batches {
				if err := sink.Deposit(sh.Start+off, recs); err != nil {
					t.Fatalf("size %d: deposit: %v", size, err)
				}
			}
			// A hedged duplicate of the same shard must merge to nothing.
			if sh.Index%2 == 0 {
				dup, err := RunShard(spec, sh, nil)
				if err != nil {
					t.Fatalf("size %d: duplicate RunShard(%v): %v", size, sh, err)
				}
				for off, recs := range dup {
					if err := sink.Deposit(sh.Start+off, recs); err != nil {
						t.Fatalf("size %d: duplicate deposit: %v", size, err)
					}
				}
			}
		}
		if stripWall(buf.Bytes()) != stripWall(ref.Bytes()) {
			t.Errorf("shard size %d: merged JSONL differs from local run", size)
		}
		if sink.Deduped() == 0 {
			t.Errorf("shard size %d: duplicate deposits were not deduped", size)
		}
	}
}

func TestRunShardRejectsBadRange(t *testing.T) {
	spec := QuickSpec()
	units := spec.Units()
	for _, sh := range []Shard{
		{Start: -1, End: 1}, {Start: 0, End: 0}, {Start: 2, End: 1},
		{Start: 0, End: len(units) + 1},
	} {
		if _, err := RunShard(spec, sh, nil); err == nil {
			t.Errorf("RunShard accepted %v over %d units", sh, len(units))
		}
	}
}

func TestCanonicalizeOrdersAndStrips(t *testing.T) {
	recs := []Record{
		{SpecHash: "h", Unit: "task/b", Kind: KindTask, WallNS: 7},
		{SpecHash: "h", Unit: "experiment/E5/t0", Kind: KindExperiment, Row: 1, WallNS: 9},
		{SpecHash: "h", Unit: "experiment/E5/t0", Kind: KindExperiment, Row: 0, WallNS: 9},
		{SpecHash: "h", Unit: "task/a", Kind: KindTask, WallNS: 3},
	}
	canon := Canonicalize(recs)
	if recs[0].WallNS != 7 {
		t.Error("Canonicalize mutated its input")
	}
	wantUnits := []string{"experiment/E5/t0", "experiment/E5/t0", "task/a", "task/b"}
	for i, r := range canon {
		if r.Unit != wantUnits[i] || r.WallNS != 0 {
			t.Errorf("canon[%d] = {%s row=%d wall=%d}, want unit %s wall 0",
				i, r.Unit, r.Row, r.WallNS, wantUnits[i])
		}
	}
	if canon[0].Row != 0 || canon[1].Row != 1 {
		t.Errorf("experiment rows out of order: %d then %d", canon[0].Row, canon[1].Row)
	}
	var buf bytes.Buffer
	if err := EncodeRecords(&buf, canon); err != nil {
		t.Fatalf("EncodeRecords: %v", err)
	}
	decoded, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
	if err != nil || len(decoded) != len(canon) {
		t.Fatalf("round trip: %d records, err %v", len(decoded), err)
	}
}

// TestCanonicalizeEquatesShuffledStreams covers the cross-file comparison
// cluster-smoke relies on: a merged distributed artifact and a local
// artifact canonicalize to identical bytes even though sink order differs.
func TestCanonicalizeEquatesShuffledStreams(t *testing.T) {
	spec := QuickSpec()
	buf, _ := runToBuffer(t, spec, RunOptions{Workers: 2})
	recs, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]Record(nil), recs...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var a, b bytes.Buffer
	if err := EncodeRecords(&a, Canonicalize(recs)); err != nil {
		t.Fatal(err)
	}
	if err := EncodeRecords(&b, Canonicalize(shuffled)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("canonical bytes differ between orderings of the same records")
	}
}

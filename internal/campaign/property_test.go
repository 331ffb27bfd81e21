package campaign

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// quickRecords runs the quick spec once and returns its records plus the
// per-unit batches, the raw material for the property tests below.
func quickRecords(t *testing.T) (*Spec, []Record, [][]Record) {
	t.Helper()
	spec := QuickSpec()
	var buf bytes.Buffer
	if _, err := Run(spec, NewSink(&buf), RunOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	units := spec.Units()
	batches := make([][]Record, len(units))
	for _, r := range recs {
		for i, u := range units {
			if u.Key() == r.Unit {
				batches[i] = append(batches[i], r)
				break
			}
		}
	}
	return spec, recs, batches
}

// TestCanonicalizeIdempotentAndOrderInsensitive checks the two properties
// the byte-identity contract leans on: canonicalizing twice changes
// nothing, and the input order of records never shows in the output.
func TestCanonicalizeIdempotentAndOrderInsensitive(t *testing.T) {
	_, recs, _ := quickRecords(t)
	if len(recs) == 0 {
		t.Fatal("quick spec produced no records")
	}
	want := Canonicalize(recs)
	if again := Canonicalize(want); !reflect.DeepEqual(again, want) {
		t.Fatal("Canonicalize is not idempotent")
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shuffled := append([]Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := Canonicalize(shuffled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: canonical form depends on input order", seed)
		}
	}
	// Canonicalize must not mutate its input: the shuffles above would be
	// meaningless if it sorted in place.
	var buf1, buf2 bytes.Buffer
	if err := EncodeRecords(&buf1, recs); err != nil {
		t.Fatal(err)
	}
	_ = Canonicalize(recs)
	if err := EncodeRecords(&buf2, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("Canonicalize mutated its input")
	}
}

// TestSinkIdempotentUnderShuffledDuplicateReplays deposits every unit
// several times in random orders — the mess hedged dispatches, reassigned
// leases and resumed runs produce — and requires the byte stream to match
// a clean in-order run exactly, with every duplicate counted.
func TestSinkIdempotentUnderShuffledDuplicateReplays(t *testing.T) {
	_, _, batches := quickRecords(t)

	var want bytes.Buffer
	clean := NewSink(&want)
	for i, recs := range batches {
		if err := clean.Deposit(i, recs); err != nil {
			t.Fatal(err)
		}
	}
	if clean.Deduped() != 0 {
		t.Fatalf("clean run deduped %d deposits", clean.Deduped())
	}

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Each unit appears 2-3 times; later copies must all drop.
		var order []int
		for i := range batches {
			for c := 0; c < 2+rng.Intn(2); c++ {
				order = append(order, i)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var got bytes.Buffer
		sink := NewSink(&got)
		for _, i := range order {
			if err := sink.Deposit(i, batches[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: replayed deposits changed the byte stream", seed)
		}
		if wantDup := len(order) - len(batches); sink.Deduped() != wantDup {
			t.Fatalf("seed %d: deduped %d deposits, want %d", seed, sink.Deduped(), wantDup)
		}
		if sink.Written() != clean.Written() {
			t.Fatalf("seed %d: wrote %d records, want %d", seed, sink.Written(), clean.Written())
		}
	}
}

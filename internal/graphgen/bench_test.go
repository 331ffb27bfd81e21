package graphgen

import (
	"math/rand"
	"testing"
)

func BenchmarkComplete(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Complete(256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomConnected(1024, 4096, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubdividedComplete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := RandomEdgeTuple(128, 128, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubdividedComplete(128, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCliqueGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := RandomEdgeTuple(128, 32, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := RandomGadgetPairs(32, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CliqueGadget(128, 4, s, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomRegular cycles through 64 seeds: one seed's rejection
// count can sit far from the mean.
func BenchmarkRandomRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(256, 4, int64(i%64+1)); err != nil {
			b.Fatal(err)
		}
	}
}

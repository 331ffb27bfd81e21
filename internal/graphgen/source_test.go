package graphgen

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSourceMatchesMathRand holds the source copy to math/rand: for any
// seed, the first draws of its Uint64 and Int63 streams must equal
// rand.NewSource(seed)'s, and a pooled pair's rand.Rand must draw what
// rand.New(rand.NewSource(seed)) draws. The seeds cover 0 and the other
// multiples of 2³¹-1 (which Seed maps to one fixed seed), negatives and
// the int64 extremes.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, -1, 89482311, int32max, -int32max, 2 * int32max, int32max + 1,
		1 << 40, -12345678901, math.MaxInt64, math.MinInt64} {
		f.Add(seed, uint16(5000))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 10001
		var src source
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < n; i++ {
			if a, b := src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 draw %d is %d, math/rand's %d", seed, i, a, b)
			}
		}
		src.Seed(seed)
		ref.Seed(seed)
		for i := 0; i < n; i++ {
			if a, b := src.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d: Int63 draw %d is %d, math/rand's %d", seed, i, a, b)
			}
		}
		s := newSeeded(seed)
		defer seededPool.Put(s)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			if a, b := s.rng.Intn(i+1), r.Intn(i+1); a != b {
				t.Fatalf("seed %d: pooled Intn draw %d is %d, math/rand's %d", seed, i, a, b)
			}
			if a, b := s.src.Uint32(), r.Uint32(); a != b {
				t.Fatalf("seed %d: pooled Uint32 draw %d is %d, math/rand's %d", seed, i, a, b)
			}
		}
	})
}

// TestBurnShuffleMatchesShuffle: burning the draws for positions i down
// to 1 leaves the source where rand.Shuffle over i+1 elements leaves
// math/rand's. A million draws redraw some sixty times, mostly inside a
// run; the small counts start and end runs on either side of a wrap.
func TestBurnShuffleMatchesShuffle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, i := range []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 5000, 1 << 20} {
			var src source
			src.Seed(seed)
			src.Uint64() // start off the seeded position
			ref := rand.New(rand.NewSource(seed))
			ref.Uint64()
			burnShuffle(&src, i)
			ref.Shuffle(i+1, func(int, int) {})
			if a, b := src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d, i %d: next draw %d, math/rand's %d", seed, i, a, b)
			}
		}
	}
}

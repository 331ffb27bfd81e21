package graphgen

import (
	"math/rand"
	"sync"
)

// source is an exact copy of math/rand's default source, the additive
// lagged-Fibonacci generator of rand.NewSource: seeded with the same
// value it yields the same Uint64 and Int63 streams, so rand.New(src)
// draws exactly what rand.New(rand.NewSource(seed)) draws. Its methods
// are concrete, so a generator holding a *source inlines each draw where
// a *rand.Rand would make two interface calls. Seed, Int63 and Uint64
// follow math/rand's rng.go line for line (Copyright 2009 The Go Authors;
// BSD-style license, as Go's LICENSE file states).
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [srcLen]int64 // current feedback register
}

const (
	srcLen   = 607
	srcTap   = 273
	srcMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// srcCooked is math/rand's rngCooked table, the register each seed's
// Lehmer words are XORed into. init derives it rather than copying it:
// rand.NewSource(1) starts from srcCooked XOR seed 1's Lehmer words, and
// its first srcLen outputs each overwrite one register word (feed walks
// every index once). Stepping the recurrence back srcLen times from those
// outputs restores the seeded register, and XORing seed 1's Lehmer words
// out of it leaves the table. FuzzSourceMatchesMathRand holds the copy to
// math/rand.
var srcCooked [srcLen]int64

func init() {
	ref := rand.NewSource(1).(rand.Source64)
	var s source
	s.Seed(1) // srcCooked is still zero: s.vec holds seed 1's Lehmer words
	lehmer := s.vec
	for range srcLen {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % srcLen
		s.feed = (s.feed + 1) % srcLen
	}
	for i := range srcCooked {
		srcCooked[i] = s.vec[i] ^ lehmer[i]
	}
}

// seedrand is one Lehmer step, x[n+1] = 48271 * x[n] mod (2**31 - 1).
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)

	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < srcLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u int64
			u = int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= srcCooked[i]
			s.vec[i] = u
		}
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & srcMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Uint32 is rand.Rand's Uint32: the top 32 of Int63's bits.
func (s *source) Uint32() uint32 {
	return uint32(s.Uint64() >> 31)
}

// seeded pairs a source with the *rand.Rand drawing from it, for
// generators that draw both inline and through rand.Rand's methods.
type seeded struct {
	src source
	rng *rand.Rand
}

// seededPool holds seeded pairs for reuse: a source is a 4.9 KB register,
// and Seed refills one in place.
var seededPool = sync.Pool{New: func() any {
	s := new(seeded)
	s.rng = rand.New(&s.src)
	return s
}}

// newSeeded returns a pair from seededPool, seeded with seed.
func newSeeded(seed int64) *seeded {
	s := seededPool.Get().(*seeded)
	s.src.Seed(seed)
	return s
}

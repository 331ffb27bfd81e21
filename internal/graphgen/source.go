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

// The Lehmer chain Seed draws on is x[k+1] = 48271·x[k] mod (2³¹-1), so
// x[k] = x[0]·48271^k, and lehmerK is 48271^K mod (2³¹-1): lehmer21 takes
// the seed to vec[0]'s first word, lehmer1 and lehmer2 take an entry's
// first word to its other two, lehmer3 steps one entry and lehmerStride
// steps lehmerLanes entries.
const (
	lehmerA     = 48271
	lehmerLanes = 4
)

var (
	lehmer1      = uint64(lehmerA)
	lehmer2      = lehmerPow(2)
	lehmer3      = lehmerPow(3)
	lehmer21     = lehmerPow(21)
	lehmerStride = lehmerPow(3 * lehmerLanes)
)

// lehmerPow returns 48271^k mod (2³¹-1).
func lehmerPow(k int) uint64 {
	x := uint64(1)
	for range k {
		x = mulMod31(x, lehmerA)
	}
	return x
}

// mulMod31 returns a·b mod (2³¹-1) for a, b < 2³¹-1. 2³¹ is 1 modulo
// 2³¹-1, so adding the bits above 31 to those below keeps the residue.
func mulMod31(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
// math/rand steps the chain 1,841 times in series: 20 steps, then three
// words for each vec entry, vec[i] taking x[21+3i], x[22+3i] and x[23+3i].
// Seed computes the same words in lehmerLanes chains that step lehmerLanes
// entries at a time, which the processor runs side by side.
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

	var x [lehmerLanes]uint64 // x[c] is x[21+3i] for vec entry i+c
	x[0] = mulMod31(uint64(seed), lehmer21)
	for c := 1; c < len(x); c++ {
		x[c] = mulMod31(x[c-1], lehmer3)
	}
	for i := 0; i < srcLen; i += len(x) {
		for c := range min(len(x), srcLen-i) {
			a := x[c]
			u := a<<40 ^ mulMod31(a, lehmer1)<<20 ^ mulMod31(a, lehmer2)
			s.vec[i+c] = int64(u) ^ srcCooked[i+c]
			x[c] = mulMod31(a, lehmerStride)
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

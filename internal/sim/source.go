package sim

import "math/rand"

// math/rand's additive lagged-Fibonacci generator: a 607-word register,
// each draw adding the word 273 places on to the one it overwrites.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	mersenne = 1<<31 - 1 // the seeding LCG's modulus
	lcgMul   = 48271     // the seeding LCG's multiplier
)

var (
	// seedPow[i] is lcgMul^(21+3i) mod 2³¹−1: register word i starts from
	// the LCG's 21+3i-th step.
	seedPow [rngLen]uint64
	// cooked is math/rand's rngCooked, recovered at init.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = mulMod(p, lcgMul)
	}
	p3 := mulMod(mulMod(lcgMul, lcgMul), lcgMul)
	for i := range seedPow {
		seedPow[i] = p
		p = mulMod(p, p3)
	}

	// rand.NewSource(1)'s first 607 draws write every register word once,
	// so they are its register after them. Each draw added a word that it
	// did not write, so the draws undo in reverse; what is left is the
	// seeded register, and XOR with seed 1's LCG terms leaves the cooked
	// constants.
	ref := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	for k := 0; k < rngLen; k++ {
		vec[feedAt(k)] = int64(ref.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		vec[feedAt(k)] -= vec[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgTerms(1, i)
	}
}

// feedAt is the register word that draw k (k < rngLen) overwrites; it
// adds word rngLen−1−k.
func feedAt(k int) int {
	f := rngLen - rngTap - 1 - k
	if f < 0 {
		f += rngLen
	}
	return f
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&mersenne + x>>31
	if x >= mersenne {
		x -= mersenne
	}
	return x
}

// lcgTerms is the LCG part of register word i for a normalised seed.
func lcgTerms(seed uint64, i int) int64 {
	x := mulMod(seed, seedPow[i])
	u := x << 40
	x = mulMod(x, lcgMul)
	u ^= x << 20
	x = mulMod(x, lcgMul)
	return int64(u ^ x)
}

// word is register word i as seeding leaves it.
func word(seed uint64, i int) int64 { return lcgTerms(seed, i) ^ cooked[i] }

// Source is a rand.Source64 that draws math/rand's seeded stream
// (rand.NewSource's), bit for bit, and seeds in O(1). It keeps only the
// normalised seed until a draw reads a register word that an earlier draw
// wrote: draws 0–272 read words nobody has written yet, so each is
// computed from the seed alone. Draw 273 allocates the register, fills it,
// replays the 273 additions into it and from then on steps it as
// math/rand does.
type Source struct {
	seed uint64 // in [1, 2³¹−2]
	// n counts draws up to the spill; past rngTap the register holds
	// the stream.
	n    int
	tap  int
	feed int
	vec  *[rngLen]int64
}

// NewSource returns a Source seeded with seed; its stream is
// rand.NewSource(seed)'s.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, with math/rand's rules: the seed is
// taken mod 2³¹−1, a negative one shifted up and 0 read as 89482311.
func (s *Source) Seed(seed int64) {
	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.n = uint64(seed), 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.n <= rngTap {
		return int64(s.cold() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.n <= rngTap {
		return s.cold()
	}
	return s.step()
}

// step is math/rand's draw: the feed word gains the tap word and is the
// result.
func (s *Source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// cold serves draws 0–272 from the seed and spills at draw 273.
func (s *Source) cold() uint64 {
	k := s.n
	s.n++
	if k < rngTap {
		return uint64(word(s.seed, feedAt(k)) + word(s.seed, rngLen-1-k))
	}
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = word(s.seed, i)
	}
	for k := 0; k < rngTap; k++ {
		s.vec[feedAt(k)] += s.vec[rngLen-1-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	return s.step()
}

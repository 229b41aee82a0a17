package sim

import "math/rand"

// This file owns math/rand's seeded source, the additive lagged-Fibonacci
// generator of Mitchell and Reeds, so that a stream pays for its seeding in
// proportion to the values it draws. Every stream returns exactly what
// rand.NewSource(seed) returns for the same seed.
//
// math/rand seeds its 607-word register from the reduced seed x₀ with the
// Lehmer generator x ← A·x mod (2³¹−1). It discards 20 steps, then word i
// is cooked[i] ^ L(21+3i)<<40 ^ L(22+3i)<<20 ^ L(23+3i), where
// L(k) = x₀·A^k mod (2³¹−1) and cooked is a fixed table. With A's powers
// tabled, any word costs three multiplies and depends on no other word.
//
// Draws are numbered from 0. Feed and tap start at 334 and 0 and step down,
// mod 607, before each draw, and draw j writes its sum back at the feed. So
// draw j < 273 reads only seeded words, 333−j and 606−j, and until then a
// stream holds just its reduced seed and a counter (prefixSource). Draw
// 273 is the first to read a written word; it builds the register in
// math/rand's layout (source) and runs math/rand's step from then on.

const (
	srcLen = 607 // register words
	srcTap = 273 // lag between the feed and the tap

	lehmerM    = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA    = 48271     // the Lehmer multiplier
	lehmerSkip = 20        // Lehmer steps math/rand discards before word 0

	// zeroSeed replaces a seed whose residue mod 2³¹−1 is 0, which the
	// Lehmer step would keep at 0.
	zeroSeed = 89482311

	int63Mask = 1<<63 - 1
)

var (
	// seedPow[i][k] = A^(21+3i+k) mod 2³¹−1: the powers behind word i's
	// three Lehmer values.
	seedPow = seedPowers()
	// cooked is math/rand's fixed seeding table.
	cooked = recoverCooked()
)

func seedPowers() (pow [srcLen][3]uint64) {
	p := uint64(1)
	for k := 0; k <= lehmerSkip; k++ {
		p = mulmod(p, lehmerA)
	}
	for i := range pow {
		for k := range pow[i] {
			pow[i][k] = p
			p = mulmod(p, lehmerA)
		}
	}
	return pow
}

// recoverCooked reads math/rand's fixed table back out of the first srcLen
// outputs o[k] of rand.NewSource(1) instead of copying it. Output k is
// v[feed] + v[tap]. For 273 ≤ k < 607 the tap holds o[k−273] and the feed
// is a seeded word, which gives words 0–60 and 334–606. For k < 273 both
// are seeded, and the tap word (606−k) is one of those already known,
// which gives words 61–333. XORing out seed 1's Lehmer values leaves the
// table.
func recoverCooked() (table [srcLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var o, v [srcLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	for k := srcTap; k < srcLen; k++ {
		v[(srcLen-srcTap-1-k+srcLen)%srcLen] = o[k] - o[k-srcTap]
	}
	for k := 0; k < srcTap; k++ {
		v[srcLen-srcTap-1-k] = o[k] - v[srcLen-1-k]
	}
	for i := range table {
		table[i] = v[i] ^ lehmerPart(1, i)
	}
	return table
}

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹. The product fits in 62
// bits, so one Mersenne fold leaves a value below 2·(2³¹−1), and one
// conditional subtract finishes the reduction.
func mulmod(a, b uint64) uint64 {
	z := a * b
	z = z&lehmerM + z>>31
	if z >= lehmerM {
		z -= lehmerM
	}
	return z
}

// reduceSeed returns the Lehmer state math/rand starts from: seed mod
// 2³¹−1, made non-negative, with 0 replaced by zeroSeed. Only this residue
// selects a stream.
func reduceSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// word returns word i of the register seeded from the reduced seed x.
func word(x uint64, i int) uint64 { return cooked[i] ^ lehmerPart(x, i) }

// lehmerPart returns word i's three Lehmer values for the reduced seed x,
// packed as math/rand packs them.
func lehmerPart(x uint64, i int) uint64 {
	p := &seedPow[i]
	return mulmod(x, p[0])<<40 ^ mulmod(x, p[1])<<20 ^ mulmod(x, p[2])
}

// prefixSource is a stream before draw srcTap: its reduced seed and the
// number of values drawn. Draw srcTap builds the register and repoints the
// owning RNG's rand.Rand at a rand.Rand over it, so later draws run
// math/rand's step with no check in front of it. A rand.Rand call that
// crosses the boundary, such as Perm or a NormFloat64 rejection loop,
// finishes on this source, which forwards to the register.
type prefixSource struct {
	x     uint64      // reduced seed
	n     int         // values drawn, up to srcTap
	owner **rand.Rand // the RNG field repointed when the register is built
	reg   *source     // the register, once built
}

func (p *prefixSource) Uint64() uint64 {
	if p.n < srcTap {
		v := word(p.x, srcLen-srcTap-1-p.n) + word(p.x, srcLen-1-p.n)
		p.n++
		return v
	}
	if p.reg == nil {
		p.reg = p.build()
		*p.owner = rand.New(p.reg)
	}
	return p.reg.Uint64()
}

func (p *prefixSource) Int63() int64 { return int64(p.Uint64() & int63Mask) }

func (p *prefixSource) Seed(int64) { panic("sim: an RNG stream cannot be reseeded") }

// build returns the register as math/rand holds it after srcTap draws: the
// seeded words, with draw j's sum written back at word 333−j, and feed and
// tap where draw srcTap−1 left them.
func (p *prefixSource) build() *source {
	s := &source{tap: srcLen - srcTap, feed: srcLen - 2*srcTap}
	for i := range s.vec {
		s.vec[i] = int64(word(p.x, i))
	}
	for i := s.feed; i < s.tap; i++ {
		s.vec[i] += s.vec[i+srcTap]
	}
	return s
}

// source is math/rand's rngSource: the same layout and the same step.
type source struct {
	tap  int
	feed int
	vec  [srcLen]int64
}

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

func (s *source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

func (s *source) Seed(int64) { panic("sim: an RNG stream cannot be reseeded") }

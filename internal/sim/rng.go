package sim

import "math/rand"

// RNG is a deterministic pseudo-random stream. Each model component that
// needs randomness (traffic generators, workload models, sharer selection)
// owns its own stream, derived from the run seed and a component label, so
// adding randomness to one component never perturbs another.
//
// A stream returns exactly what rand.New(rand.NewSource(seed)) returns.
// So only seed mod (2³¹−1) selects a stream, and residues 0 and 89482311
// share one: DeriveSeed's 63 bits choose among 2³¹−2 streams. That is kept
// because every stream stays byte-identical; another generator would change
// every stream and need a harness.ModelSalt bump.
//
// An RNG is used only by pointer: its source repoints r when the stream's
// state is built (see prefixSource).
type RNG struct {
	seed int64
	r    *rand.Rand
	src  prefixSource
}

// NewRNG returns the stream of rand.NewSource(seed), which only
// seed mod (2³¹−1) selects. It allocates 96 bytes; the stream's 274th value
// builds the 4.9 KB state, so a stream that draws at most 273 values never
// pays for it.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src = prefixSource{x: reduceSeed(seed), owner: &g.r}
	g.r = rand.New(&g.src)
	return g
}

// Seed returns the seed the stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Derive returns a new independent stream whose seed mixes the parent's
// *seed* — not the parent's stream state — with the given label. Derivation
// is pure: it draws nothing from the parent, so the derived seed depends
// only on (parent seed, label), never on how many siblings were derived
// before or in what order. That is what actually upholds the package
// guarantee above, and it makes seed schedules stable under concurrent or
// reordered execution.
func (g *RNG) Derive(label int64) *RNG {
	return NewRNG(DeriveSeed(g.seed, uint64(label)))
}

// splitmix64 is the SplitMix64 finalizer: a bijective scramble that spreads
// nearby inputs across the full 64-bit range.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// DeriveSeed folds any number of labels into a base seed and returns a
// non-negative seed for NewRNG. It is the pure stream-splitting primitive
// behind RNG.Derive and the experiment harness's per-run seed schedule:
// the result is a function of its arguments alone, so two call sites that
// agree on (base, labels...) agree on the seed regardless of execution
// order, interleaving, or how many other streams exist.
func DeriveSeed(base int64, labels ...uint64) int64 {
	// The fold is deliberately asymmetric (state advances by the golden
	// gamma, labels enter pre-scaled by a different odd constant): applying
	// one shared scramble to both sides lets z ^ f(label) cancel to zero
	// whenever base and label hash alike.
	z := splitmix64(uint64(base) ^ 0x9e3779b97f4a7c15)
	for _, l := range labels {
		z = splitmix64(z + 0x9e3779b97f4a7c15 + l*0xbf58476d1ce4e5b9)
	}
	return int64(z & 0x7fffffffffffffff)
}

// StringLabel hashes a string into a DeriveSeed label (FNV-1a, 64-bit), so
// seed schedules can be keyed by names (network kind, traffic pattern,
// benchmark) rather than positional indices.
func StringLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// ExpDuration returns an exponentially distributed duration with the given
// mean, rounded to the nearest picosecond, never less than one picosecond
// and saturating at MaxTime. Poisson packet injection calls it once per
// packet, so it must stay within the compiler's inlining budget.
func (g *RNG) ExpDuration(mean Duration) Duration {
	return max(FromPicoseconds(g.r.ExpFloat64()*float64(mean)), 1)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*g.r.NormFloat64()
}

// Geometric returns an exponentially distributed positive integer with the
// given mean (≥1). It models the instruction distance between cache misses.
func (g *RNG) Geometric(mean float64) int {
	n := int(g.r.ExpFloat64()*mean + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

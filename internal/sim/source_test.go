package sim

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// mathRandRNG returns the reference stream: an RNG over math/rand's own
// seeded source.
func mathRandRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// rngEdgeSeeds are the seeds pinned against math/rand: zero and the seed
// math/rand maps it to, ±1, multiples of the Lehmer modulus, 2³¹, the int64
// extremes, and the golden derived seeds.
func rngEdgeSeeds() []int64 {
	seeds := []int64{0, 1, 2, -1, zeroSeed, lehmerM, -lehmerM, 2 * lehmerM, 1 << 31, math.MaxInt64, math.MinInt64}
	return append(seeds, deriveGolden...)
}

// intnArgs cycle through Intn: a figure-6 destination draw, a power of two,
// a round size, one that rejects about a quarter of its draws, and one
// above 2³¹ that takes rand's Int63n path.
var intnArgs = []int{63, 64, 1000, 3 << 29, 1 << 40}

// rngMethods are the RNG methods the models call. Each call appends what it
// returned to out; i varies the argument from call to call.
var rngMethods = [8]struct {
	name string
	call func(g *RNG, i int, out []uint64) []uint64
}{
	{"Float64", func(g *RNG, _ int, out []uint64) []uint64 { return append(out, math.Float64bits(g.Float64())) }},
	{"Intn", func(g *RNG, i int, out []uint64) []uint64 {
		return append(out, uint64(g.Intn(intnArgs[i%len(intnArgs)])))
	}},
	{"Int63", func(g *RNG, _ int, out []uint64) []uint64 { return append(out, uint64(g.Int63())) }},
	{"ExpDuration", func(g *RNG, _ int, out []uint64) []uint64 { return append(out, uint64(g.ExpDuration(1000))) }},
	{"Geometric", func(g *RNG, _ int, out []uint64) []uint64 { return append(out, uint64(g.Geometric(12.5))) }},
	{"Normal", func(g *RNG, _ int, out []uint64) []uint64 { return append(out, math.Float64bits(g.Normal(3, 0.5))) }},
	{"Perm", func(g *RNG, i int, out []uint64) []uint64 {
		for _, v := range g.Perm(1 + i%40) {
			out = append(out, uint64(v))
		}
		return out
	}},
	{"Bool", func(g *RNG, _ int, out []uint64) []uint64 {
		if g.Bool(0.3) {
			return append(out, 1)
		}
		return append(out, 0)
	}},
}

// sameCall runs method m with argument i on both streams and fails unless
// they return the same values.
func sameCall(t testing.TB, got, want *RNG, m, i int) {
	t.Helper()
	a := rngMethods[m].call(got, i, nil)
	b := rngMethods[m].call(want, i, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("seed %d: %s(%d) = %v, math/rand gives %v", want.seed, rngMethods[m].name, i, a, b)
	}
}

// sameDraws fails unless the next n Int63 values of a and b agree.
func sameDraws(t *testing.T, a, b *RNG, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seeds %d and %d: draw %d of %d differs: %d vs %d", a.seed, b.seed, i, n, x, y)
		}
	}
}

// TestRNGMatchesMathRand pins every stream to math/rand's for the edge
// seeds, over 3,000 mixed calls of every method the models use. Every call
// draws at least one value, so each run crosses draw 273, where the
// register is built, and draw 607, by which point every word of it has been
// rewritten once.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range rngEdgeSeeds() {
		got, want := NewRNG(seed), mathRandRNG(seed)
		pick := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			sameCall(t, got, want, pick.Intn(len(rngMethods)), i)
		}
		if got.src.reg == nil {
			t.Fatalf("seed %d: 3,000 calls never built the register", seed)
		}
	}
}

// TestRNGRepointMidCall draws k values for every k around the register
// build, then calls Perm(32), Normal and ExpDuration. For k < 273 the
// build happens inside Perm, whose remaining draws go through the old
// rand.Rand and must forward to the register. The run then continues past
// draw 607.
func TestRNGRepointMidCall(t *testing.T) {
	for k := srcTap - 13; k <= srcTap+7; k++ {
		got, want := NewRNG(int64(k)), mathRandRNG(int64(k))
		sameDraws(t, got, want, k)
		if a, b := got.Perm(32), want.Perm(32); !slices.Equal(a, b) {
			t.Fatalf("after %d draws: Perm(32) = %v, math/rand gives %v", k, a, b)
		}
		if a, b := got.Normal(0, 1), want.Normal(0, 1); a != b {
			t.Fatalf("after %d draws: Normal = %v, math/rand gives %v", k, a, b)
		}
		if a, b := got.ExpDuration(1000), want.ExpDuration(1000); a != b {
			t.Fatalf("after %d draws: ExpDuration = %v, math/rand gives %v", k, a, b)
		}
		sameDraws(t, got, want, srcLen)
	}
}

// TestRNGSeedResidues pins math/rand's seed reduction: only seed mod
// (2³¹−1) selects a stream, a negative residue is lifted by 2³¹−1, and
// residue 0 runs as seed 89482311.
func TestRNGSeedResidues(t *testing.T) {
	pairs := [][2]int64{
		{0, zeroSeed},
		{0, lehmerM},
		{1, 1 + lehmerM},
		{-1, lehmerM - 1},
		{12345, 12345 + 3*lehmerM},
		{math.MaxInt64 - lehmerM, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + lehmerM},
	}
	for _, p := range pairs {
		sameDraws(t, NewRNG(p[0]), NewRNG(p[1]), 2*srcLen)
	}
}

var rngSink *RNG

// TestRNGPrefixAllocs guards the per-stream cost: a stream that draws at
// most 273 values allocates only its RNG and rand.Rand, and its 274th
// value builds the register and the rand.Rand over it.
func TestRNGPrefixAllocs(t *testing.T) {
	for _, tc := range []struct {
		draws  int
		allocs float64
	}{{0, 2}, {37, 2}, {srcTap, 2}, {srcTap + 1, 4}} {
		allocs := testing.AllocsPerRun(100, func() {
			g := NewRNG(7)
			for i := 0; i < tc.draws; i++ {
				g.Int63()
			}
			rngSink = g
		})
		if allocs != tc.allocs {
			t.Errorf("stream of %d draws allocated %.1f objects, want %.0f", tc.draws, allocs, tc.allocs)
		}
		if built := rngSink.src.reg != nil; built != (tc.draws > srcTap) {
			t.Errorf("stream of %d draws: register built = %v", tc.draws, built)
		}
	}
}

var (
	durSink Duration
	intSink int
)

// BenchmarkNewRNG measures one stream's life: NewRNG, then n iterations of
// the open-loop source's draw pair, ExpDuration plus Intn(63). Zero is
// cpu.Run's root stream, used only to Derive; 37 is the median stream of
// the figure 7–10 study; 273 iterations cross the register build; 5,000 is
// a long-lived figure-6 source. Each mathrand case runs the same loop on an
// RNG over rand.NewSource, the reference the long streams must match.
func BenchmarkNewRNG(b *testing.B) {
	for _, n := range []int{0, 37, 273, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			benchStreams(b, "sim", NewRNG, n)
			benchStreams(b, "mathrand", mathRandRNG, n)
		})
	}
}

func benchStreams(b *testing.B, name string, newRNG func(int64) *RNG, n int) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newRNG(int64(i))
			for j := 0; j < n; j++ {
				durSink += g.ExpDuration(1000)
				intSink += g.Intn(63)
			}
			rngSink = g
		}
	})
}

// BenchmarkRNGDraw measures the steady-state draw pair on a stream whose
// register is built and fully rewritten, against the same pair on
// math/rand's source: the two must be within noise.
func BenchmarkRNGDraw(b *testing.B) {
	for _, ref := range []struct {
		name   string
		newRNG func(int64) *RNG
	}{{"sim", NewRNG}, {"mathrand", mathRandRNG}} {
		b.Run(ref.name, func(b *testing.B) {
			g := ref.newRNG(1)
			for i := 0; i < 2*srcLen; i++ {
				g.Int63()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				durSink += g.ExpDuration(1000)
				intSink += g.Intn(63)
			}
		})
	}
}

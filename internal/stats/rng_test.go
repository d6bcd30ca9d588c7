package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// draws is how many values each method is compared over.
const draws = 2000

// sameDraws holds NewRand(seed) to math/rand's rand.New(rand.NewSource(seed))
// for every rand.Rand method product code calls: each method runs on a
// fresh pair, so one that consumes a different number of source values
// per call cannot hide behind another.
func sameDraws(t *testing.T, seed int64) {
	t.Helper()
	methods := []struct {
		name string
		draw func(r *rand.Rand, i int) any
	}{
		{"Uint64", func(r *rand.Rand, _ int) any { return r.Uint64() }},
		{"Int63", func(r *rand.Rand, _ int) any { return r.Int63() }},
		// Bounds near a power of two and near MaxInt64 make the rejection
		// loops retry.
		{"Int63n", func(r *rand.Rand, i int) any { return r.Int63n(int64(i)<<52 + 1) }},
		{"Intn", func(r *rand.Rand, i int) any { return r.Intn([]int{1, 3, 1<<30 + 1, math.MaxInt64}[i%4]) }},
		{"Float64", func(r *rand.Rand, _ int) any { return r.Float64() }},
		{"ExpFloat64", func(r *rand.Rand, _ int) any { return r.ExpFloat64() }},
		{"NormFloat64", func(r *rand.Rand, _ int) any { return r.NormFloat64() }},
	}
	for _, m := range methods {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for i := range draws {
			if w, g := m.draw(want, i), m.draw(got, i); w != g {
				t.Fatalf("seed %d: %s draw %d = %v, math/rand draws %v", seed, m.name, i, g, w)
			}
		}
	}
	if w, g := rand.New(rand.NewSource(seed)).Perm(draws), NewRand(seed).Perm(draws); !slices.Equal(w, g) {
		t.Fatalf("seed %d: Perm(%d) differs from math/rand's", seed, draws)
	}
	w, g := make([]int, draws), make([]int, draws)
	for i := range w {
		w[i], g[i] = i, i
	}
	rand.New(rand.NewSource(seed)).Shuffle(draws, func(i, j int) { w[i], w[j] = w[j], w[i] })
	NewRand(seed).Shuffle(draws, func(i, j int) { g[i], g[j] = g[j], g[i] })
	if !slices.Equal(w, g) {
		t.Fatalf("seed %d: Shuffle(%d) differs from math/rand's", seed, draws)
	}
}

// seedCorpus covers the seed reduction's edges: zero and its stand-in,
// multiples of the modulus, both signs, and both int64 extremes.
var seedCorpus = []int64{0, m31, -m31, 2 * m31, math.MinInt64, math.MaxInt64, 89482311}

func FuzzNewRand(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add(s)
	}
	f.Fuzz(sameDraws)
}

// TestNewRandMatchesMathRand runs the raw draws over a range of seeds
// around zero and the modulus, where the seed reduction turns.
func TestNewRandMatchesMathRand(t *testing.T) {
	for _, base := range []int64{0, m31, -m31} {
		for s := base - 300; s <= base+300; s++ {
			want, got := rand.New(rand.NewSource(s)), NewRand(s)
			for i := range 3 * rngLen {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d: draw %d = %d, math/rand draws %d", s, i, g, w)
				}
			}
		}
	}
	// Reseeding a used generator restarts it as math/rand's does.
	want, got := rand.New(rand.NewSource(5)), NewRand(5)
	want.Int63()
	got.Int63()
	want.Seed(11)
	got.Seed(11)
	if w, g := want.Int63(), got.Int63(); w != g {
		t.Fatalf("after Seed(11): %d, math/rand draws %d", g, w)
	}
}

package stats

import "math/rand"

// NewRand returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) draws. The source is math/rand's additive
// lagged-Fibonacci generator with its state and draw copied as they are;
// only seeding differs. math/rand seeds by 1,841 dependent steps of
// x <- 48271*x mod (2^31-1); here four independent chains each start from
// a closed-form jump, with a branch-free Mersenne reduction in place of
// Schrage's method.
func NewRand(seed int64) *rand.Rand { return rand.New(newSource(seed)) }

// newSource is not inlined so that NewRand is: a generator that does not
// escape its caller keeps its rand.Rand on the stack, as
// rand.New(rand.NewSource(seed)) does.
//
//go:noinline
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

const (
	rngLen, rngTap = 607, 273
	m31, seedMul   = 1<<31 - 1, 48271
)

// source is math/rand's rngSource: the same state, the same draws.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

var (
	cooked [rngLen]int64 // math/rand's rngCooked, recovered at init
	// State word i takes its three seed values from x_{21+3i}, x_{22+3i}
	// and x_{23+3i} of the serial chain x_n = seedMul^n * seed, so chain q
	// of four starts at seedMul^(21+3q) and steps by seedMul^12.
	start       [4]uint64
	mul2, mul12 uint64 // seedMul^2, seedMul^12
)

func init() {
	pow := func(n int) uint64 {
		p := uint64(1)
		for ; n > 0; n-- {
			p = mulmod(p, seedMul)
		}
		return p
	}
	for q := range start {
		start[q] = pow(21 + 3*q)
	}
	mul2, mul12 = pow(2), pow(12)

	// After 607 draws the feed index has written every slot once, so the
	// stdlib's state is its last 607 draws. Undoing the additions, newest
	// first, gives its seeded state for seed 1: our uncooked state for
	// seed 1 (cooked is still zero here) XOR rngCooked.
	ref, s := rand.NewSource(1).(rand.Source64), &source{feed: rngLen - rngTap}
	for range rngLen {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	raw := newSource(1)
	for i := range cooked {
		cooked[i] = s.vec[i] ^ raw.vec[i]
	}
}

// mulmod returns a*x mod 2^31-1 for a, x in [1, 2^31-2]. The two folds
// leave a value in [0, 2^31-1] congruent to a*x, and a*x is never a
// multiple of the prime modulus, so it is the residue.
func mulmod(a, x uint64) uint64 {
	p := a * x
	p = p&m31 + p>>31
	return p&m31 + p>>31
}

// word is the uncooked state word whose first seed value is x.
func word(x uint64) int64 {
	return int64(x<<40 ^ mulmod(seedMul, x)<<20 ^ mulmod(mul2, x))
}

func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	if seed %= m31; seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	y0, y1, y2, y3 := mulmod(start[0], x), mulmod(start[1], x), mulmod(start[2], x), mulmod(start[3], x)
	i := 0
	for ; i+4 <= rngLen; i += 4 {
		s.vec[i] = word(y0) ^ cooked[i]
		s.vec[i+1] = word(y1) ^ cooked[i+1]
		s.vec[i+2] = word(y2) ^ cooked[i+2]
		s.vec[i+3] = word(y3) ^ cooked[i+3]
		y0, y1, y2, y3 = mulmod(mul12, y0), mulmod(mul12, y1), mulmod(mul12, y2), mulmod(mul12, y3)
	}
	// 607 = 4*151 + 3: the last three words take the first three chains.
	s.vec[i], s.vec[i+1], s.vec[i+2] = word(y0)^cooked[i], word(y1)^cooked[i+1], word(y2)^cooked[i+2]
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

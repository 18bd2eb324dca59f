package workloads

import (
	"math/rand"
	"sync"
)

// NewRand returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)) for every seed, without math/rand's
// seeding cost. math/rand fills all 607 words of its additive lagged
// Fibonacci register up front (1 841 steps of a Lehmer LCG, ≈ 14 µs on
// a 2-vCPU Xeon), although 64 draws read 128 of them. This source
// fills a word when a draw first reads it, so a small request pays for
// the words it reads and a long stream pays nothing more per draw once
// the first 334 draws have filled the register.
//
// Every input generator outside benchmark/ is seeded through NewRand (or
// RandFor), so "the same (workload, n, seed) names the same input" holds
// across capsim, caprun, capserve and the tests.
func NewRand(seed int64) *rand.Rand {
	// Small enough to inline, so a caller's *rand.Rand can stay on its
	// stack as rand.New(rand.NewSource(seed))'s does.
	return rand.New(newLazySource(seed))
}

func newLazySource(seed int64) *lazySource {
	cookOnce.Do(cook)
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// RandFor derives a deterministic generator for (experiment, index).
func RandFor(seed int64, idx int) *rand.Rand {
	return NewRand(seed*1_000_003 + int64(idx)*7919 + 17)
}

// The register's shape, as math/rand's rng.go has it.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lcgA is the Lehmer multiplier of math/rand's seeding.
	lcgA = 48271
	// seedDraws is how many draws read a word seeding has not written:
	// draw k (1-based) reads tap word 607−k and feed word 334−k, so
	// tap walks the unfilled words 606…334 for k ≤ 273, feed walks
	// 333…0 for k ≤ 334, and from draw 274 on tap reads words feed has
	// already written.
	seedDraws = rngLen - rngTap
)

// Word i of the seeded register is built from LCG outputs x₂₁₊₃ᵢ,
// x₂₂₊₃ᵢ and x₂₃₊₃ᵢ, where xₖ = Aᵏ·seed mod 2³¹−1. The tap side starts
// at word 606 and the feed side at word 333, and each steps down one
// word at a time.
var (
	powTapStart  = lcgPow(lcgA, 21+3*(rngLen-1))
	powFeedStart = lcgPow(lcgA, 21+3*(seedDraws-1))
	lcgDown      = lcgPow(lcgA, int32max-1-3) // A⁻³, by Fermat
)

// lazySource is math/rand's rngSource with its register filled on demand.
type lazySource struct {
	tap, feed int
	// unfilled counts the draws left that read a word not yet written
	// (seedDraws after Seed, then down to 0 for good). It shares a
	// cache line with tap and feed.
	unfilled int
	// xTap and xFeed are x₂₁₊₃ᵢ of the next word each side fills.
	xTap, xFeed uint64
	vec         [rngLen]int64
}

// Seed resets the source to math/rand's state for seed, lazily.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed = 0, seedDraws
	s.unfilled = seedDraws
	s.xTap = lcgMul(uint64(seed), powTapStart)
	s.xFeed = lcgMul(uint64(seed), powFeedStart)
}

// Int63 and Uint64 keep the fill test in their own bodies and the fill
// out of line, so a long stream pays one predictable branch per draw.
func (s *lazySource) Int63() int64 {
	if s.unfilled > 0 {
		s.fill()
	}
	return s.next() & rngMask
}

func (s *lazySource) Uint64() uint64 {
	if s.unfilled > 0 {
		s.fill()
	}
	return uint64(s.next())
}

// next is math/rand's rngSource.Uint64.
func (s *lazySource) next() int64 {
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
	return x
}

// fill writes the words the coming draw reads for the first time. It
// counts draws rather than matching cursors: after draw 273 the tap
// cursor enters 0…333, words feed has already written and must keep.
func (s *lazySource) fill() {
	k := seedDraws + 1 - s.unfilled // the coming draw, 1-based
	if k <= rngTap {
		s.vec[rngLen-k] = lcgWord(&s.xTap) ^ cooked[rngLen-k]
	}
	s.vec[seedDraws-k] = lcgWord(&s.xFeed) ^ cooked[seedDraws-k]
	s.unfilled--
}

// lcgWord returns word i of the register before the XOR with math/rand's
// table, from *x = x₂₁₊₃ᵢ: three consecutive LCG outputs packed as
// math/rand packs them. It steps *x down to x₂₁₊₃₍ᵢ₋₁₎.
func lcgWord(x *uint64) int64 {
	a := *x
	b := lcgMul(a, lcgA)
	c := lcgMul(b, lcgA)
	*x = lcgMul(a, lcgDown)
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// lcgMul is a·b mod 2³¹−1 for a, b < 2³¹−1. Since 2³¹ ≡ 1, the high
// bits of the product fold onto the low ones.
func lcgMul(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

func lcgPow(a uint64, e int) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = lcgMul(r, a)
		}
		a = lcgMul(a, a)
	}
	return r
}

// cooked is math/rand's unexported rngCooked table, read back out of the
// first 607 outputs oₖ of one rand.NewSource(1). With v the register
// seed 1 starts from: draws 274…334 add oₖ₋₂₇₃ (tap reads what draw
// k−273 fed) to v[60…0], draws 335…607 add it to v[606…334], and draws
// 1…273 add v[606…334] to v[333…61]. XOR-ing the LCG part back out of v
// leaves the table.
var (
	cooked   [rngLen]int64
	cookOnce sync.Once
)

func cook() {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(seedDraws-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[seedDraws-k] = o[k] - v[rngLen-k]
	}
	x := powTapStart // seed 1
	for i := rngLen - 1; i >= 0; i-- {
		cooked[i] = v[i] ^ lcgWord(&x)
	}
}

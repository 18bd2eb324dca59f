package workloads

import (
	"math/rand"
	"testing"
)

// TestNewRandReseeds checks Seed in the middle of the fill and after it:
// each must restart the exact math/rand stream of the new seed.
func TestNewRandReseeds(t *testing.T) {
	got, want := NewRand(7), rand.New(rand.NewSource(7))
	for _, at := range []int{100, 1000} {
		for d := 0; d < at; d++ {
			got.Int63()
		}
		seed := int64(at)
		got.Seed(seed)
		want.Seed(seed)
		for d := 0; d < 2*rngLen; d++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded at draw %d: draw %d is %d, want %d", at, d, g, w)
			}
		}
	}
}

// FuzzNewRand holds NewRand(seed) to rand.New(rand.NewSource(seed))
// through every method the input generators use, mixed, for at least two
// turns of the 607-word register. ?seed= arrives from the wire. The seed
// corpus covers the seeds math/rand's seeding treats specially: zero and
// the multiples of 2³¹−1 (all mapped to 89482311), negatives (folded up
// by 2³¹−1) and the int64 extremes, plus 109, the seed of
// BenchmarkSimulatorThroughput's graph.
func FuzzNewRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2*rngLen+int(draws); i++ {
			var g, w any
			switch i % 6 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				n := i%97 + 1
				g, w = got.Intn(n), want.Intn(n)
			case 3:
				n := 1<<40 + i // past int32: Intn's Int63n path
				g, w = got.Intn(n), want.Intn(n)
			case 4:
				n := int64(3<<61 - i) // rejects about a quarter of its draws
				g, w = got.Int63n(n), want.Int63n(n)
			case 5:
				g, w = got.Float64(), want.Float64()
			}
			if g != w {
				t.Fatalf("seed %d call %d: %v, want %v", seed, i, g, w)
			}
		}
	})
}

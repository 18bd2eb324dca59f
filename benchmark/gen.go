package main

import (
	"math"
	"math/rand"
	"time"
)

// request is the only thing the programs under test ever receive from
// the benchmark: a (workload, n, seed) triple.
type request struct {
	Workload string
	N        int
	Seed     int64
}

// mixSpec describes a traffic mix: weighted workloads, a size ladder
// drawn zipf(S) by rank (smallest size most likely), and how many
// distinct input seeds each (workload, size) cell has.
type mixSpec struct {
	Workloads []string
	Weights   []int // parallel to Workloads
	Sizes     []int
	ZipfS     float64
	Seeds     int
	// Size maps a workload and a ladder rung to the n that is sent.
	Size func(workload string, rung int) int
	// RoundRobin replaces the random draw by a fixed rotation over the
	// cells, for mixes that need exactly equal shares.
	RoundRobin bool
}

// fineMix is the 4:2:1:1 small-request mix native_fine and serve_open share.
var fineMix = mixSpec{
	Workloads: []string{"quicksort", "dijkstra", "lzw", "perceptron"},
	Weights:   []int{4, 2, 1, 1},
	Sizes:     fineSizes,
	ZipfS:     zipfS,
	Seeds:     4,
	Size:      fineSize,
}

var clusterMix = mixSpec{
	Workloads: []string{"quicksort"},
	Weights:   []int{1},
	Sizes:     clusterSizes,
	ZipfS:     zipfS,
	// Many seeds per size: checking 832 expected checksums is what makes
	// this fleet's set-up long enough (≈ 50 ms) to time steadily.
	Seeds: 64,
	Size:  fineSize,
}

// coarseMix rotates three large inputs, a third of the ops each, so the
// median op is the middle kind's and not a boundary between two kinds.
var coarseMix = mixSpec{
	Workloads: []string{"quicksort", "lzw", "perceptron"},
	Weights:   []int{1, 1, 1},
	Sizes:     []int{0},
	ZipfS:     zipfS,
	Seeds:     4,
	Size: func(w string, _ int) int {
		return map[string]int{"quicksort": coarseQuickSortN, "lzw": coarseLZWN, "perceptron": coarsePerceptronN}[w]
	},
	RoundRobin: true,
}

// plan is everything a run sends, generated from the seed before any
// window opens: the pool of distinct requests, the order they are sent
// in, and for an open loop when each is due.
type plan struct {
	Pool []request
	List []int32         // indexes into Pool, in send order
	Due  []time.Duration // open loop: offset of List[i]'s scheduled send; nil for a closed loop
}

// fineSize applies the per-workload scaling of the shared size ladder.
func fineSize(workload string, n int) int {
	if workload == "dijkstra" {
		return max(n/dijkstraDiv, 8)
	}
	return n
}

// newPlan generates count requests of mix from seed. rate > 0 adds a
// Poisson arrival schedule at that many requests per second.
func newPlan(seed int64, mix mixSpec, count int, rate float64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{List: make([]int32, count)}
	for _, w := range mix.Workloads {
		for _, n := range mix.Sizes {
			for k := 0; k < mix.Seeds; k++ {
				p.Pool = append(p.Pool, request{w, mix.Size(w, n), rng.Int63n(1 << 31)})
			}
		}
	}
	cell := func(w, s, k int) int32 { return int32((w*len(mix.Sizes)+s)*mix.Seeds + k) }

	wCDF := cdf(len(mix.Weights), func(i int) float64 { return float64(mix.Weights[i]) })
	sCDF := cdf(len(mix.Sizes), func(i int) float64 { return 1 / math.Pow(float64(i+1), mix.ZipfS) })
	cells := len(mix.Workloads) * len(mix.Sizes)
	for i := range p.List {
		if mix.RoundRobin {
			c := i % cells
			p.List[i] = cell(c/len(mix.Sizes), c%len(mix.Sizes), (i/cells)%mix.Seeds)
			continue
		}
		p.List[i] = cell(pick(wCDF, rng.Float64()), pick(sCDF, rng.Float64()), rng.Intn(mix.Seeds))
	}
	if rate > 0 {
		p.Due = make([]time.Duration, count)
		t := 0.0
		for i := range p.Due {
			t += rng.ExpFloat64() / rate
			p.Due[i] = time.Duration(t * float64(time.Second))
		}
	}
	return p
}

func cdf(n int, weight func(int) float64) []float64 {
	c := make([]float64, n)
	total := 0.0
	for i := range c {
		total += weight(i)
		c[i] = total
	}
	for i := range c {
		c[i] /= total
	}
	return c
}

func pick(cdf []float64, u float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

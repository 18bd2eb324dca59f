package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted. It refuses a percentile with fewer than ten samples beyond it:
// a p95 of 50 samples is the third-largest value, not a percentile.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need 10)", p, n, beyond)
	}
	return sorted[rank-1], nil
}

// percentileOrZero is for per-layer rows, where a layer that saw too few
// spans reads 0 instead of failing the run.
func percentileOrZero(xs []int64, p float64) float64 {
	sortInt64(xs)
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return float64(v)
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so that the
// spreads -report prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 3 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// rusage is the process's CPU time and peak resident set so far.
type rusage struct {
	cpu    time.Duration
	peakMB float64
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{} // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{cpu: tv(ru.Utime) + tv(ru.Stime), peakMB: float64(ru.Maxrss) / 1024}
}

var spinSink uint64

// spinNS times a fixed arithmetic loop: the same work before and after a
// workload, so a box that changed speed underneath the run is visible.
func spinNS() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 7; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := float64(time.Since(start).Nanoseconds())
		spinSink += x
		if d < best {
			best = d
		}
	}
	return best
}

// noisy is the report's flag for a run whose spin loop disagreed with
// itself by more than a tenth.
func noisy(before, after float64) bool {
	return math.Abs(after-before) > 0.10*math.Min(before, after)
}

package capserve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/promtext"
)

// TestHistogramBucketBoundaries pins the le-inclusive bucketing of the
// integer-nanosecond observe path: an observation exactly on a bound
// lands in that bound's bucket, one past it spills to the next, and
// everything beyond the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Microsecond)          // == bucket 0 bound: le inclusive
	h.Observe(100*time.Microsecond + 1)        // just past: bucket 1
	h.Observe(time.Nanosecond)                 // far below: bucket 0
	h.Observe(5 * time.Second)                 // == last bound: bucket 14
	h.Observe(5*time.Second + time.Nanosecond) // beyond: +Inf slot
	want := map[int]uint64{0: 2, 1: 1, 14: 1, 15: 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	wantSum := int64(100*time.Microsecond) + int64(100*time.Microsecond+1) + 1 +
		int64(5*time.Second) + int64(5*time.Second+time.Nanosecond)
	if got := h.sumNS.Load(); got != wantSum {
		t.Fatalf("sumNS = %d, want %d", got, wantSum)
	}

	// The rendered exposition keeps the Prometheus invariant: _count
	// equals the +Inf cumulative.
	var sb strings.Builder
	var counts [NumLatencyBuckets]uint64
	sum := h.ReadCounts(&counts)
	promtext.NewWriter(&sb).Histogram("x", latencyBuckets, counts[:], float64(sum)/1e9, "workload", "w")
	out := sb.String()
	if !strings.Contains(out, `x_bucket{workload="w",le="+Inf"} 5`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `x_count{workload="w"} 5`) {
		t.Fatalf("_count wrong:\n%s", out)
	}
	if !strings.Contains(out, `x_bucket{workload="w",le="0.0001"} 2`) {
		t.Fatalf("first bucket cumulative wrong:\n%s", out)
	}
}

// TestHistogramObserveAllocFree locks in that recording a latency costs
// no allocation (and, by construction, no lock): the serving layer's
// measurement must not become the contention point the runtime rewrite
// just removed.
func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	if got := testing.AllocsPerRun(1000, func() {
		h.Observe(314 * time.Microsecond)
	}); got != 0 {
		t.Fatalf("observe allocs/op = %v, want 0", got)
	}
}

// TestNSBoundsMatchSecondsBounds keeps the integer bounds in lockstep
// with the float bounds the exposition renders.
func TestNSBoundsMatchSecondsBounds(t *testing.T) {
	if len(latencyBucketsNS) != len(latencyBuckets) {
		t.Fatal("bucket bound arrays diverged in length")
	}
	for i, s := range latencyBuckets {
		if got, want := latencyBucketsNS[i], int64(s*1e9); got != want {
			t.Fatalf("bound %d: ns = %d, want %d", i, got, want)
		}
	}
}

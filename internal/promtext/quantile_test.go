package promtext

import (
	"math"
	"testing"
)

func feq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDeltaQuantile(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}

	// 100 observations: 50 in ≤10ms, 40 in (10ms,100ms], 10 in (100ms,1s].
	after := []float64{50, 90, 100, 100}

	// p50: rank 50 lands exactly at the first bucket's cumulative count
	// → interpolates to its upper bound.
	if q, ok := DeltaQuantile(bounds, nil, after, 0.50); !ok || !feq(q, 0.01) {
		t.Fatalf("p50 = %g, %v; want 0.01", q, ok)
	}
	// p75: rank 75, 25/40 into the second bucket: 0.01 + 0.625*0.09.
	if q, ok := DeltaQuantile(bounds, nil, after, 0.75); !ok || !feq(q, 0.01+0.625*0.09) {
		t.Fatalf("p75 = %g, %v", q, ok)
	}
	// p100 = last bucket's bound.
	if q, ok := DeltaQuantile(bounds, nil, after, 1); !ok || !feq(q, 1) {
		t.Fatalf("p100 = %g, %v; want 1", q, ok)
	}

	// Delta semantics: before cancels everything but 10 observations in
	// the middle bucket.
	before := []float64{50, 80, 90, 90}
	if q, ok := DeltaQuantile(bounds, before, after, 0.5); !ok || !feq(q, 0.01+0.5*0.09) {
		t.Fatalf("delta p50 = %g, %v", q, ok)
	}
}

func TestDeltaQuantileInfClamp(t *testing.T) {
	bounds := []float64{0.01, 0.1}
	// All mass in +Inf: the estimate clamps to the last finite bound.
	after := []float64{0, 0, 7}
	if q, ok := DeltaQuantile(bounds, nil, after, 0.99); !ok || !feq(q, 0.1) {
		t.Fatalf("+Inf p99 = %g, %v; want clamp to 0.1", q, ok)
	}
}

func TestDeltaQuantileRejects(t *testing.T) {
	bounds := []float64{0.01, 0.1}
	if _, ok := DeltaQuantile(bounds, nil, []float64{0, 0, 0}, 0.5); ok {
		t.Fatal("accepted an empty delta")
	}
	if _, ok := DeltaQuantile(bounds, []float64{5, 5, 5}, []float64{1, 2, 3}, 0.5); ok {
		t.Fatal("accepted shrinking counts")
	}
	if _, ok := DeltaQuantile(bounds, nil, []float64{1, 2}, 0.5); ok {
		t.Fatal("accepted a length mismatch")
	}
	if _, ok := DeltaQuantile(bounds, nil, []float64{1, 2, 3}, 1.5); ok {
		t.Fatal("accepted q > 1")
	}
	// Non-cumulative (decreasing) snapshot.
	if _, ok := DeltaQuantile(bounds, nil, []float64{5, 3, 6}, 0.5); ok {
		t.Fatal("accepted a non-cumulative snapshot")
	}
}

func TestDeltaFractionAbove(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	after := []float64{50, 90, 100, 100}

	// Threshold at a bucket boundary: exactly the mass above it.
	if f, ok := DeltaFractionAbove(bounds, nil, after, 0.1); !ok || !feq(f, 0.10) {
		t.Fatalf("frac>0.1 = %g, %v; want 0.10", f, ok)
	}
	// Mid-bucket: half the 40 observations in (0.01,0.1] sit above
	// 0.055 by interpolation → (20+10)/100.
	if f, ok := DeltaFractionAbove(bounds, nil, after, 0.055); !ok || !feq(f, 0.30) {
		t.Fatalf("frac>0.055 = %g, %v; want 0.30", f, ok)
	}
	// Past the last finite bound: only +Inf mass counts.
	if f, ok := DeltaFractionAbove(bounds, nil, after, 2); !ok || !feq(f, 0) {
		t.Fatalf("frac>2 = %g, %v; want 0", f, ok)
	}
	inf := []float64{50, 90, 100, 110}
	if f, ok := DeltaFractionAbove(bounds, nil, inf, 2); !ok || !feq(f, 10.0/110) {
		t.Fatalf("frac>2 with +Inf mass = %g, %v; want %g", f, ok, 10.0/110)
	}
	// Empty delta.
	if _, ok := DeltaFractionAbove(bounds, after, after, 0.1); ok {
		t.Fatal("accepted an empty delta")
	}
}

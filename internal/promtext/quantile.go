package promtext

import "math"

// Histogram-pair math: quantiles and threshold fractions estimated from
// the *difference* of two cumulative bucket snapshots of the same
// fixed-bound histogram. This is the read-side half of the repo's
// hand-rolled histograms — capwatch's windowed p50/p95/p99 rollups and
// SLO burn, and capcluster's slow-backend detector, all delta a pair of
// snapshots and interpolate inside the straddling bucket, so the
// arithmetic lives here once.
//
// Conventions, matching what our writers emit: `bounds` holds the
// finite upper bounds (seconds, ascending); a cumulative snapshot has
// len(bounds)+1 entries, the final one being the +Inf bucket (== the
// histogram's _count). A nil `before` means "delta against zero", i.e.
// use the snapshot as-is.

// DeltaQuantile estimates the q-quantile (0 ≤ q ≤ 1) of the
// observations recorded between two cumulative snapshots, by linear
// interpolation within the bucket the quantile rank lands in. The
// estimate clamps to the last finite bound when the rank falls in the
// +Inf bucket — the histogram cannot see past its table, and reporting
// "at least 5s" as 5s is the honest floor. Returns ok=false when the
// delta is empty or the snapshots are inconsistent (torn scrape,
// shrinking cumulative counts, length mismatch).
func DeltaQuantile(bounds, before, after []float64, q float64) (float64, bool) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, false
	}
	delta, total, ok := deltaCum(bounds, before, after)
	if !ok {
		return 0, false
	}
	n := len(bounds) + 1
	rank := q * total
	prevCum, lo := 0.0, 0.0
	for i := 0; i < n; i++ {
		cum := delta(i)
		if cum >= rank && cum > prevCum {
			if i == n-1 {
				return bounds[n-2], true // +Inf bucket: clamp
			}
			hi := bounds[i]
			frac := (rank - prevCum) / (cum - prevCum)
			return lo + frac*(hi-lo), true
		}
		if i < n-1 {
			lo = bounds[i]
		}
		prevCum = cum
	}
	return bounds[n-2], true
}

// deltaCum validates one snapshot pair — matching lengths, a positive
// total, cumulative counts that never shrink — and returns an indexed
// delta accessor plus the total. Shared by both estimators so a torn
// scrape is rejected identically everywhere.
func deltaCum(bounds, before, after []float64) (func(int) float64, float64, bool) {
	n := len(bounds) + 1
	if len(bounds) == 0 || len(after) != n || (before != nil && len(before) != n) {
		return nil, 0, false
	}
	delta := func(i int) float64 {
		d := after[i]
		if before != nil {
			d -= before[i]
		}
		return d
	}
	prev := 0.0
	for i := 0; i < n; i++ {
		d := delta(i)
		if d < prev || math.IsNaN(d) {
			return nil, 0, false
		}
		prev = d
	}
	total := delta(n - 1)
	if !(total > 0) {
		return nil, 0, false
	}
	return delta, total, true
}

// DeltaFractionAbove estimates the fraction of observations recorded
// between two cumulative snapshots that exceeded threshold, linearly
// interpolating within the bucket the threshold splits. Observations in
// the +Inf bucket count as above any threshold — the table cannot
// prove otherwise, and an SLO evaluator must not launder unbounded
// latencies into compliance. Returns ok=false on an empty delta or
// inconsistent snapshots.
func DeltaFractionAbove(bounds, before, after []float64, threshold float64) (float64, bool) {
	// deltaCum validates the whole cumulative chain *including* the
	// +Inf bucket. Checking only the finite buckets here used to let a
	// counter reset confined to the tail (process restart between the
	// two halves of a scrape) produce a negative fraction.
	delta, total, ok := deltaCum(bounds, before, after)
	if !ok {
		return 0, false
	}
	n := len(bounds) + 1
	prevCum, lo := 0.0, 0.0
	for i := 0; i < n-1; i++ {
		cum := delta(i)
		hi := bounds[i]
		if threshold >= hi {
			prevCum, lo = cum, hi
			continue
		}
		// The threshold lies inside (lo, hi): split this bucket's mass
		// uniformly, everything in later buckets is above.
		inBucket := cum - prevCum
		frac := 0.0
		if hi > lo {
			frac = (threshold - lo) / (hi - lo)
		}
		below := prevCum + frac*inBucket
		return 1 - below/total, true
	}
	// Threshold at or past the last finite bound: only the +Inf bucket
	// is provably above it.
	return (total - delta(n-2)) / total, true
}

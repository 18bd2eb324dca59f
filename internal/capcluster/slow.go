package capcluster

import (
	"time"

	"repro/internal/capserve"
	"repro/internal/promtext"
)

// mix64 is the splitmix64 finalizer — the repo-standard cheap mixer,
// here deriving the deterministic per-backend backoff jitter.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CheckSlow runs one round of slow-backend ejection and returns how many
// backends it ejected. The error breaker never trips on a backend that
// answers 2xx — slowly; this is the signal that does. Over the interval
// since the previous call it estimates each backend's dispatch-latency
// p99 from the dispatchLatency histogram (relayed responses only, so
// deaths and timeouts cannot double-trip it), and ejects every backend
// whose p99 is both an outlier (> slowFactor × the median of its
// *peers'* p99s — excluding the candidate, so in a small fleet the
// outlier cannot drag its own threshold up) and absolutely slow
// (> slowMinP99). Eligibility needs slowMinSamples dispatches in the
// interval and at least two eligible backends — a fleet of one has no
// peers to be an outlier against.
//
// Ejection feeds the same machinery a dead backend trips: failThreshold
// entries in the failure ring open the breaker, probation arms, and
// re-admission is the ordinary half-open trial with jittered backoff. A
// backend that is still slow on re-admission simply gets ejected again
// next interval; one that recovered serves its trial fast and is back.
//
// Single-threaded by contract: call it from one goroutine (cmd/capserve
// runs it every SlowCheckInterval; tests call it directly). The per-backend
// interval snapshot is plain state.
func (r *Router) CheckSlow() int {
	bounds := capserve.LatencyBucketBounds()
	type est struct {
		b   *Backend
		p99 float64
	}
	var eligible []est
	for _, b := range r.backends {
		var counts [capserve.NumLatencyBuckets]uint64
		b.dispatchLatency.ReadCounts(&counts)

		// The histogram stores per-bucket densities; DeltaQuantile wants
		// cumulative snapshots.
		var cum [capserve.NumLatencyBuckets]float64
		var run float64
		for i, c := range counts {
			run += float64(c)
			cum[i] = run
		}
		prev := b.slowPrev
		b.slowPrev = cum

		samples := cum[len(cum)-1] - prev[len(prev)-1]
		if samples < slowMinSamples {
			continue
		}
		p99, ok := promtext.DeltaQuantile(bounds, prev[:], cum[:], 0.99)
		if !ok {
			continue
		}
		eligible = append(eligible, est{b: b, p99: p99})
	}
	if len(eligible) < 2 {
		return 0
	}

	peers := make([]float64, 0, len(eligible)-1)
	ejected := 0
	for i, e := range eligible {
		peers = peers[:0]
		for j, o := range eligible {
			if j != i {
				peers = append(peers, o.p99)
			}
		}
		if med := median(peers); e.p99 > slowFactor*med && e.p99 > slowMinP99.Seconds() {
			e.b.eject()
			ejected++
		}
	}
	return ejected
}

// eject opens the backend's breaker as if failThreshold deaths landed
// this instant, and arms probation — "too slow" becomes "broken" through
// the exact path "dead" uses, so every re-admission rule (quiet window,
// single trial, jittered backoff) applies unchanged. Deliberately not a
// death: deaths count backend failures, ejections count router policy.
func (b *Backend) eject() {
	now := b.clock.now()
	for i := 0; i < failThreshold; i++ {
		b.ring.record(now)
	}
	b.probation.Store(probationWait)
	b.ejections.Add(1)
}

// median of xs (insertion-sorted in place; fleets are small).
func median(xs []float64) float64 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// SlowCheckInterval is the cadence of CheckSlow calls — a routing
// cmd/capserve's ejection ticker, the same 1 s as its Refresh decay ticker.
const SlowCheckInterval = time.Second

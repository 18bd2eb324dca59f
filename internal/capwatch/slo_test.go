package capwatch

import (
	"math"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
)

// Fixtures below are hand-computed against the repo's latency bucket
// table (100µs–5s log-spaced, +Inf last): bucket index 6 has upper
// bound 10ms, index 9 has 100ms, index 10 has 250ms.

func testBounds() []float64 { return capserve.LatencyBucketBounds() }

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestBurnRatesFixture(t *testing.T) {
	cfg := SLOConfig{Availability: 0.99}.withDefaults()

	// 1000 valid requests, 20 server errors: error ratio 0.02 against a
	// 0.01 budget = burn 2. 3% over the latency target against the p99's
	// 1% allowance = burn 3.
	availBurn, latBurn := burnRates(cfg, 1000, 20, 0.03)
	if !almost(availBurn, 2) || !almost(latBurn, 3) {
		t.Fatalf("burnRates = %g, %g, want 2, 3", availBurn, latBurn)
	}

	// Zero traffic burns nothing.
	availBurn, latBurn = burnRates(cfg, 0, 0, 0.5)
	if availBurn != 0 || latBurn != 0 {
		t.Fatalf("idle burnRates = %g, %g, want 0, 0", availBurn, latBurn)
	}

	// Total outage: every request an error = burn 1/budget.
	availBurn, _ = burnRates(cfg, 100, 100, 0)
	if !almost(availBurn, 100) {
		t.Fatalf("outage availBurn = %g, want 100", availBurn)
	}
}

func TestSLOWindowServerFixture(t *testing.T) {
	cfg := SLOConfig{
		TargetP99:    100 * time.Millisecond,
		Availability: 0.99,
	}.withDefaults()

	// One endpoint, window delta: 900 OK + 100 server errors = 1000
	// valid requests, availability 0.9 → availability burn
	// 0.1/0.01 = 10. Latency: 950 observations in the 10ms bucket, 50
	// in the 250ms bucket → 5% over the 100ms target → latency burn
	// 0.05/0.01 = 5. p99: rank 990 lands 80% into the 100–250ms bucket
	// → 220ms.
	from := Sample{TS: 0, Endpoints: make([]capserve.EndpointCounters, 1)}
	to := Sample{TS: 10 * int64(time.Second), Endpoints: make([]capserve.EndpointCounters, 1)}
	to.Endpoints[0].OK = 900
	to.Endpoints[0].ServerErrs = 100
	to.Endpoints[0].LatencyBuckets[6] = 950
	to.Endpoints[0].LatencyBuckets[10] = 50

	w := sloWindow(cfg, testBounds(), &from, &to, false, 10*time.Second)
	if w.ActualS != 10 {
		t.Fatalf("ActualS = %g, want 10", w.ActualS)
	}
	if w.Requests != 1000 || !almost(w.Availability, 0.9) {
		t.Fatalf("requests/availability = %g/%g, want 1000/0.9", w.Requests, w.Availability)
	}
	if !almost(w.AvailabilityBurn, 10) {
		t.Fatalf("AvailabilityBurn = %g, want 10", w.AvailabilityBurn)
	}
	if !almost(w.FracOverTarget, 0.05) || !almost(w.LatencyBurn, 5) {
		t.Fatalf("FracOverTarget/LatencyBurn = %g/%g, want 0.05/5", w.FracOverTarget, w.LatencyBurn)
	}
	if !almost(w.P99MS, 220) {
		t.Fatalf("P99MS = %g, want 220", w.P99MS)
	}
	if !almost(w.Burn, 10) {
		t.Fatalf("Burn = %g, want max(10,5) = 10", w.Burn)
	}
}

func TestSLOWindowRouterFixture(t *testing.T) {
	cfg := SLOConfig{Availability: 0.99}.withDefaults()

	// Router accounting: 1000 received, 10 client hangups and 5 client
	// faults (4xx) → 985 valid; 950 served across the tiers → 35 errors.
	// Availability 1 − 35/985; burn = (35/985)/0.01.
	from := Sample{TS: 0}
	to := Sample{TS: 5 * int64(time.Second)}
	to.Router = capcluster.Stats{
		Requests:       1000,
		ClientGone:     10,
		ClientFaults:   5,
		TierRemote:     900,
		TierLocal:      30,
		TierSequential: 20,
	}
	w := sloWindow(cfg, testBounds(), &from, &to, true, 5*time.Second)
	if w.Requests != 985 {
		t.Fatalf("Requests = %g, want 985", w.Requests)
	}
	wantAvail := 1 - 35.0/985
	if !almost(w.Availability, wantAvail) {
		t.Fatalf("Availability = %g, want %g", w.Availability, wantAvail)
	}
	wantBurn := (35.0 / 985) / 0.01
	if !almost(w.AvailabilityBurn, wantBurn) {
		t.Fatalf("AvailabilityBurn = %g, want %g", w.AvailabilityBurn, wantBurn)
	}
}

func TestSLOWindowIdle(t *testing.T) {
	cfg := SLOConfig{}.withDefaults()
	from := Sample{TS: 0}
	to := Sample{TS: int64(time.Second)}
	w := sloWindow(cfg, testBounds(), &from, &to, false, time.Second)
	if w.Availability != 1 || w.Burn != 0 || w.P99MS != 0 {
		t.Fatalf("idle window = %+v, want availability 1, burn 0", w)
	}
}

func TestSLODefaultsClamp(t *testing.T) {
	c := SLOConfig{Availability: 0.999999}.withDefaults()
	if c.Availability > 0.9999 {
		t.Fatalf("Availability %g not clamped; burn rates would overflow", c.Availability)
	}
	c = SLOConfig{}.withDefaults()
	if c.TargetP99 != DefaultTargetP99 || c.Availability != DefaultAvailability ||
		c.FastWindow != DefaultFastWindow || c.SlowWindow != DefaultSlowWindow {
		t.Fatalf("defaults = %+v", c)
	}
}

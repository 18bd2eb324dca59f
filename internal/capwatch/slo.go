package capwatch

import (
	"fmt"
	"time"

	"repro/internal/capserve"
	"repro/internal/promtext"
)

// SLO evaluation in the Google-SRE multi-window shape: an availability
// objective and a latency objective (a target the p99 must stay
// under), each tracked as *error-budget burn rate* — the ratio of the
// budget-spend rate inside a window to the rate that would exactly
// exhaust the budget. Burn 1.0 means "on pace to spend the whole
// budget"; a fast 5m window catches cliffs while a slow 1h window
// keeps one noisy minute from paging, and only both burning hot at
// once (Exhausted) is actionable. Windows scale down for tests and
// smoke runs (-slo-fast/-slo-slow flags).

// latencyBudget is the tolerated fraction of requests over the latency
// target: the target is a p99, so 1% may exceed it by definition.
const latencyBudget = 0.01

// SLO defaults.
const (
	DefaultTargetP99    = 150 * time.Millisecond
	DefaultAvailability = 0.99
	DefaultFastWindow   = 5 * time.Minute
	DefaultSlowWindow   = time.Hour
)

// SLOConfig states the objectives. Zero fields take the defaults.
type SLOConfig struct {
	// TargetP99 is the latency objective: at most 1% of requests in a
	// window may take longer.
	TargetP99 time.Duration

	// Availability is the success-ratio objective in (0, 1), e.g. 0.99
	// allows a 1% error budget. Values above 0.9999 are clamped: a
	// histogram-window evaluator cannot resolve tighter budgets, and an
	// infinite burn rate helps nobody.
	Availability float64

	// FastWindow and SlowWindow are the two burn windows.
	FastWindow, SlowWindow time.Duration
}

func (c SLOConfig) validate() error {
	if c.TargetP99 < 0 || c.FastWindow < 0 || c.SlowWindow < 0 {
		return fmt.Errorf("capwatch: SLO durations must be >= 0 (0 means default)")
	}
	if c.Availability < 0 || c.Availability >= 1 {
		if c.Availability != 0 {
			return fmt.Errorf("capwatch: SLO Availability must be in (0,1), got %g", c.Availability)
		}
	}
	if c.FastWindow != 0 && c.SlowWindow != 0 && c.FastWindow > c.SlowWindow {
		return fmt.Errorf("capwatch: SLO FastWindow %v exceeds SlowWindow %v", c.FastWindow, c.SlowWindow)
	}
	return nil
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.TargetP99 == 0 {
		c.TargetP99 = DefaultTargetP99
	}
	if c.Availability == 0 {
		c.Availability = DefaultAvailability
	}
	if c.Availability > 0.9999 {
		c.Availability = 0.9999
	}
	if c.Availability < 0.5 {
		c.Availability = 0.5
	}
	if c.FastWindow == 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.SlowWindow == 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	return c
}

// SLOWindow is one window's verdict.
type SLOWindow struct {
	WindowS float64 `json:"window_s"` // requested
	ActualS float64 `json:"actual_s"` // covered by resident samples

	Requests     float64 `json:"requests"`     // valid (non-client-fault) requests in window
	Availability float64 `json:"availability"` // 1 when no traffic
	P99MS        float64 `json:"p99_ms"`       // 0 when no latency observations

	// FracOverTarget is the estimated fraction of requests slower than
	// TargetP99.
	FracOverTarget float64 `json:"frac_over_target"`

	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
	Burn             float64 `json:"burn"` // max of the two
}

// SLOReport is the evaluator's full output, embedded in every Report.
type SLOReport struct {
	TargetP99MS  float64   `json:"target_p99_ms"`
	Availability float64   `json:"availability_objective"`
	Fast         SLOWindow `json:"fast"`
	Slow         SLOWindow `json:"slow"`

	// BurnRate is the headline number (the fast window's burn): how
	// many budgets per budget-period the current behaviour spends.
	BurnRate float64 `json:"burn_rate"`

	// Exhausted is the page condition: both windows burning at >= 1.
	Exhausted bool `json:"exhausted"`
}

// evalSLO runs the evaluator against the ring's current contents.
func (s *Sampler) evalSLO() SLOReport {
	rep := SLOReport{
		TargetP99MS:  float64(s.slo.TargetP99) / 1e6,
		Availability: s.slo.Availability,
		Fast:         s.evalWindow(s.slo.FastWindow),
		Slow:         s.evalWindow(s.slo.SlowWindow),
	}
	rep.BurnRate = rep.Fast.Burn
	rep.Exhausted = rep.Fast.Burn >= 1 && rep.Slow.Burn >= 1
	return rep
}

func (s *Sampler) evalWindow(d time.Duration) SLOWindow {
	from, to, _, ok := s.window(d)
	if !ok {
		return SLOWindow{WindowS: d.Seconds(), Availability: 1}
	}
	return sloWindow(s.slo, s.bounds, &from, &to, s.cfg.Router != nil, d)
}

// sloWindow judges one window from a pair of snapshots. Pure — the
// fixture tests drive it with hand-built samples.
func sloWindow(cfg SLOConfig, bounds []float64, from, to *Sample, isRouter bool, want time.Duration) SLOWindow {
	w := SLOWindow{
		WindowS:      want.Seconds(),
		ActualS:      float64(to.TS-from.TS) / 1e9,
		Availability: 1,
	}
	requests, errors := trafficTotals(from, to, isRouter)
	w.Requests = requests
	if requests > 0 {
		w.Availability = 1 - errors/requests
	}
	before := latencyCum(from)
	after := latencyCum(to)
	if p99, ok := promtext.DeltaQuantile(bounds, before, after, 0.99); ok {
		w.P99MS = p99 * 1e3
	}
	if frac, ok := promtext.DeltaFractionAbove(bounds, before, after, cfg.TargetP99.Seconds()); ok {
		w.FracOverTarget = frac
	}
	w.AvailabilityBurn, w.LatencyBurn = burnRates(cfg, requests, errors, w.FracOverTarget)
	w.Burn = w.AvailabilityBurn
	if w.LatencyBurn > w.Burn {
		w.Burn = w.LatencyBurn
	}
	return w
}

// burnRates is the budget arithmetic, isolated for fixture tests:
// burn = (bad fraction in window) / (bad fraction the objective
// tolerates). Zero traffic burns nothing.
func burnRates(cfg SLOConfig, requests, errors, fracOver float64) (availBurn, latencyBurn float64) {
	if requests <= 0 {
		return 0, 0
	}
	availBurn = (errors / requests) / (1 - cfg.Availability)
	latencyBurn = fracOver / latencyBudget
	return availBurn, latencyBurn
}

// trafficTotals extracts the window's valid-request and server-error
// deltas. The denominator is *valid* requests — client faults (bad
// parameters, oversize n, hangups) spend no error budget, per the
// usual SLI discipline.
//
// A router's counters are request-scoped rather than response-coded:
// errors are the requests that failed every rung of the degradation
// ladder (received minus tier-served minus client hangups and client
// faults — a 4xx on either rung, as capserve's ClientErrs). Requests
// still in flight at snapshot time count as errors for one window —
// negligible against windows of seconds and bounded by the queue
// depth, but the reason sub-second smoke windows should drain before
// judging.
func trafficTotals(from, to *Sample, isRouter bool) (requests, errors float64) {
	if isRouter {
		dReq := float64(to.Router.Requests - from.Router.Requests)
		dClient := float64((to.Router.ClientGone + to.Router.ClientFaults) - (from.Router.ClientGone + from.Router.ClientFaults))
		served := float64((to.Router.TierRemote + to.Router.TierLocal + to.Router.TierSequential) -
			(from.Router.TierRemote + from.Router.TierLocal + from.Router.TierSequential))
		requests = dReq - dClient
		errors = requests - served
		if errors < 0 {
			errors = 0
		}
		return requests, errors
	}
	for i := range to.Endpoints {
		te := &to.Endpoints[i]
		var ok, serr uint64
		if i < len(from.Endpoints) {
			fe := &from.Endpoints[i]
			ok = te.OK - fe.OK
			serr = te.ServerErrs - fe.ServerErrs
		} else {
			ok, serr = te.OK, te.ServerErrs
		}
		requests += float64(ok + serr)
		errors += float64(serr)
	}
	return requests, errors
}

// latencyCum builds one sample's cumulative client-latency
// distribution: endpoint histograms summed, plus per-backend dispatch
// histograms for a router (remote-served requests never touch the
// local endpoints). Allocates — report path only.
func latencyCum(sm *Sample) []float64 {
	nb := capserve.NumLatencyBuckets
	cum := make([]float64, nb)
	var run float64
	for i := 0; i < nb; i++ {
		for j := range sm.Endpoints {
			run += float64(sm.Endpoints[j].LatencyBuckets[i])
		}
		for j := range sm.Backends {
			run += float64(sm.Backends[j].DispatchBuckets[i])
		}
		cum[i] = run
	}
	return cum
}

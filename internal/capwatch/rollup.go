package capwatch

import (
	"time"

	"repro/internal/buildinfo"
	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/promtext"
)

// Windowed rollups: a Report is the difference of two ring snapshots
// turned into what an operator (or the future admission controller)
// actually asks — rates of change, windowed grant rate and
// availability, histogram-delta latency quantiles, and the SLO burn
// verdict. All division happens here, on the read path; the ring only
// ever stores raw cumulative counters.

// DefaultWindow is the rollup window when a /debug/watch request names
// none.
const DefaultWindow = time.Minute

// Report is the JSON document /debug/watch serves and capscope top
// renders.
type Report struct {
	Source string         `json:"source"`
	Tier   string         `json:"tier"` // "server" or "router"
	Build  buildinfo.Info `json:"build"`

	NowUnixMS int64   `json:"now_unix_ms"`
	IntervalS float64 `json:"interval_s"`
	RingSlots int     `json:"ring_slots"`
	Samples   uint64  `json:"samples"` // taken since construction

	WindowS       float64 `json:"window_s"`        // requested
	WindowActualS float64 `json:"window_actual_s"` // covered by resident samples
	WindowSamples int     `json:"window_samples"`

	// WindowClampedS is set (to the effective divisor, seconds) when the
	// requested window or the actual covered span was narrower than one
	// sampling tick: rates are divided by at least one tick so that two
	// near-simultaneous snapshots can't inflate deltas into Inf.
	WindowClampedS float64 `json:"window_clamped_s,omitempty"`

	// Incidents is the incident bundle count since process start (0
	// without an IncidentDir).
	Incidents uint64 `json:"incidents"`

	// Instantaneous gauges (newest sample).
	FreeContexts   int     `json:"free_contexts"`
	QueueDepth     int     `json:"queue_depth"`
	QueueOccupancy int     `json:"queue_occupancy"`
	Go             GoStats `json:"go"`

	Rates   RateReport `json:"rates"`
	Latency Quantiles  `json:"latency"`

	Endpoints []EndpointReport `json:"endpoints,omitempty"`
	Backends  []BackendReport  `json:"backends,omitempty"`
	Router    *RouterReport    `json:"router,omitempty"`

	SLO SLOReport `json:"slo"`
}

// RateReport is the windowed rate-of-change block.
type RateReport struct {
	ProbesPerSec float64 `json:"probes_per_s"`
	GrantsPerSec float64 `json:"grants_per_s"`
	GrantRate    float64 `json:"grant_rate"` // windowed "% divisions allowed"
	DeniesPerSec float64 `json:"denies_per_s"`
	DeathsPerSec float64 `json:"deaths_per_s"`

	RequestsPerSec float64 `json:"requests_per_s"` // valid request completions
	ErrorsPerSec   float64 `json:"errors_per_s"`   // server faults
	DegradedPerSec float64 `json:"degraded_per_s"`
	Availability   float64 `json:"availability"` // windowed; 1 with no traffic
}

// Quantiles is a histogram-delta latency summary in milliseconds.
type Quantiles struct {
	Count float64 `json:"count"` // observations in window
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// EndpointReport is one workload's windowed serving rates.
type EndpointReport struct {
	Workload       string  `json:"workload"`
	RequestsPerSec float64 `json:"requests_per_s"`
	ErrorsPerSec   float64 `json:"errors_per_s"`
	DegradedPerSec float64 `json:"degraded_per_s"`
	P99MS          float64 `json:"p99_ms"`
}

// BackendReport is one backend's gauges and windowed dispatch rates as
// the router sees them.
type BackendReport struct {
	Name             string  `json:"name"`
	Credits          int     `json:"credits"`
	Inflight         int     `json:"inflight"`
	Broken           bool    `json:"broken"`
	DispatchesPerSec float64 `json:"dispatches_per_s"`
	ServedPerSec     float64 `json:"served_per_s"`
	ShedsPerSec      float64 `json:"sheds_per_s"`
	DeathsPerSec     float64 `json:"deaths_per_s"`
	P99MS            float64 `json:"p99_ms"` // dispatch latency
}

// RouterReport is the cluster tier's windowed request accounting.
type RouterReport struct {
	RequestsPerSec       float64 `json:"requests_per_s"`
	RemoteGrantRate      float64 `json:"remote_grant_rate"`
	FallbackRate         float64 `json:"fallback_rate"`
	TierRemotePerSec     float64 `json:"tier_remote_per_s"`
	TierLocalPerSec      float64 `json:"tier_local_per_s"`
	TierSequentialPerSec float64 `json:"tier_sequential_per_s"`
	ClientGonePerSec     float64 `json:"client_gone_per_s"`
}

// Report rolls the ring up over the trailing window (0: DefaultWindow).
// The SLO block always judges its own configured fast/slow windows,
// independent of the rollup window asked for here.
func (s *Sampler) Report(window time.Duration) Report {
	if window <= 0 {
		window = DefaultWindow
	}
	// A window narrower than one tick cannot span two distinct
	// snapshots; widen it so the rollup judges at least one interval.
	clamped := false
	if window < s.interval {
		window = s.interval
		clamped = true
	}
	tier := "server"
	if s.cfg.Router != nil {
		tier = "router"
	}
	rep := Report{
		Source:    s.source,
		Tier:      tier,
		Build:     buildinfo.Get(),
		NowUnixMS: time.Now().UnixMilli(),
		IntervalS: s.interval.Seconds(),
		RingSlots: len(s.ring),
		Samples:   s.cursor.Load(),
		WindowS:   window.Seconds(),
		SLO:       s.evalSLO(),
	}
	if s.rec != nil {
		rep.Incidents = s.rec.incidents.Load()
	}
	from, to, n, ok := s.window(window)
	if !ok {
		rep.Rates.Availability = 1
		return rep
	}
	rep.WindowSamples = n
	rep.WindowActualS = float64(to.TS-from.TS) / 1e9
	rep.FreeContexts = to.FreeContexts
	rep.QueueDepth = to.QueueDepth
	rep.QueueOccupancy = to.QueueOccupancy
	rep.Go = to.Go

	sec, short := s.span(&from, &to)
	if clamped || short {
		rep.WindowClampedS = sec
	}
	rate := func(delta uint64) float64 { return float64(delta) / sec }

	// Capsule tier. Probes is derived from the outcome counters, so the
	// delta's Probes is exactly the sum of the delta's outcomes.
	d := to.Capsule.Delta(from.Capsule)
	rep.Rates.ProbesPerSec = rate(d.Probes)
	rep.Rates.GrantsPerSec = rate(d.Granted)
	rep.Rates.GrantRate = d.GrantRate()
	rep.Rates.DeniesPerSec = rate(d.NoCtxDenies + d.ThrottleDenies)
	rep.Rates.DeathsPerSec = rate(d.Deaths)

	requests, errors := trafficTotals(&from, &to, s.cfg.Router != nil)
	rep.Rates.RequestsPerSec = requests / sec
	rep.Rates.ErrorsPerSec = errors / sec
	rep.Rates.Availability = 1
	if requests > 0 {
		rep.Rates.Availability = 1 - errors/requests
	}

	// Serving tier.
	var degraded uint64
	for i := range to.Endpoints {
		te := &to.Endpoints[i]
		var fe capserve.EndpointCounters
		if i < len(from.Endpoints) {
			fe = from.Endpoints[i]
		}
		dOK := te.OK - fe.OK
		dErr := te.ServerErrs - fe.ServerErrs
		dDeg := te.Degraded - fe.Degraded
		degraded += dDeg
		er := EndpointReport{
			RequestsPerSec: rate(dOK + dErr),
			ErrorsPerSec:   rate(dErr),
			DegradedPerSec: rate(dDeg),
		}
		if i < len(s.workloads) {
			er.Workload = s.workloads[i]
		}
		before := bucketCum(fe.LatencyBuckets[:])
		after := bucketCum(te.LatencyBuckets[:])
		if p99, ok := promtext.DeltaQuantile(s.bounds, before, after, 0.99); ok {
			er.P99MS = p99 * 1e3
		}
		rep.Endpoints = append(rep.Endpoints, er)
	}
	rep.Rates.DegradedPerSec = rate(degraded)

	// Whole-tier latency quantiles from the merged distribution.
	before := latencyCum(&from)
	after := latencyCum(&to)
	rep.Latency.Count = after[len(after)-1] - before[len(before)-1]
	if p, ok := promtext.DeltaQuantile(s.bounds, before, after, 0.50); ok {
		rep.Latency.P50MS = p * 1e3
	}
	if p, ok := promtext.DeltaQuantile(s.bounds, before, after, 0.95); ok {
		rep.Latency.P95MS = p * 1e3
	}
	if p, ok := promtext.DeltaQuantile(s.bounds, before, after, 0.99); ok {
		rep.Latency.P99MS = p * 1e3
	}

	// Cluster tier.
	if s.cfg.Router != nil {
		fr, tr := from.Router, to.Router
		rr := &RouterReport{
			RequestsPerSec:       rate(tr.Requests - fr.Requests),
			TierRemotePerSec:     rate(tr.TierRemote - fr.TierRemote),
			TierLocalPerSec:      rate(tr.TierLocal - fr.TierLocal),
			TierSequentialPerSec: rate(tr.TierSequential - fr.TierSequential),
			ClientGonePerSec:     rate(tr.ClientGone - fr.ClientGone),
		}
		if probes := tr.RemoteProbes - fr.RemoteProbes; probes > 0 {
			rr.RemoteGrantRate = float64(tr.RemoteGrants-fr.RemoteGrants) / float64(probes)
		}
		if reqs := tr.Requests - fr.Requests; reqs > 0 {
			rr.FallbackRate = float64(tr.LocalFallbacks-fr.LocalFallbacks) / float64(reqs)
		}
		rep.Router = rr

		for i := range to.Backends {
			tb := &to.Backends[i]
			var fb capcluster.BackendStats
			if i < len(from.Backends) {
				fb = from.Backends[i]
			}
			br := BackendReport{
				Name:             tb.Name,
				Credits:          tb.Credits,
				Inflight:         tb.Inflight,
				Broken:           tb.Broken,
				DispatchesPerSec: rate(tb.Dispatches - fb.Dispatches),
				ServedPerSec:     rate(tb.Served - fb.Served),
				ShedsPerSec:      rate(tb.Sheds - fb.Sheds),
				DeathsPerSec:     rate(tb.Deaths - fb.Deaths),
			}
			bBefore := bucketCum(fb.DispatchBuckets[:])
			bAfter := bucketCum(tb.DispatchBuckets[:])
			if p99, ok := promtext.DeltaQuantile(s.bounds, bBefore, bAfter, 0.99); ok {
				br.P99MS = p99 * 1e3
			}
			rep.Backends = append(rep.Backends, br)
		}
	}
	return rep
}

// span is the time between two snapshots in seconds, the divisor of
// every rate over them, and whether it was clamped: rates divide by at
// least one tick, because back-to-back SampleNow calls (tests, on-demand
// pokes) land snapshots microseconds apart and a raw delta/elapsed would
// explode toward Inf.
func (s *Sampler) span(from, to *Sample) (sec float64, clamped bool) {
	sec = float64(to.TS-from.TS) / 1e9
	if minSec := s.interval.Seconds(); sec < minSec {
		return minSec, true
	}
	return sec, false
}

// bucketCum cumulates a density bucket array into the []float64 shape
// the promtext delta helpers take.
func bucketCum(density []uint64) []float64 {
	cum := make([]float64, len(density))
	var run float64
	for i, c := range density {
		run += float64(c)
		cum[i] = run
	}
	return cum
}

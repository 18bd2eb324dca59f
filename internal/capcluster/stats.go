package capcluster

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/capserve"
	"repro/internal/promtext"
)

// Stats is a snapshot of the router's cluster-scope counters: the
// paper's probe/grant/deny/death accounting, one tier up. Per-backend
// counters are aggregated in; BackendStats has the split. Every field is
// cumulative since construction, so two snapshots delta into a window
// (capwatch's ring holds one per tick).
type Stats struct {
	Requests       uint64 `json:"requests"`        // /run requests received
	RemoteProbes   uint64 `json:"remote_probes"`   // ProbeRemote attempts (incl. denies)
	RemoteGrants   uint64 `json:"remote_grants"`   // probes that reserved a credit
	CreditDenies   uint64 `json:"credit_denies"`   // probes refused: no credit
	BreakerDenies  uint64 `json:"breaker_denies"`  // probes refused: breaker open
	RemoteServed   uint64 `json:"remote_served"`   // responses proxied from a backend
	RemoteSheds    uint64 `json:"remote_sheds"`    // backend 503s (stale credits)
	Deaths         uint64 `json:"deaths"`          // backend errors/timeouts/5xx
	LocalFallbacks uint64 `json:"local_fallbacks"` // requests degraded to the local tier
	ClientGone     uint64 `json:"client_gone"`     // clients that hung up mid-route

	// The degradation ladder's outcome split: which rung produced each
	// 2xx (caprouter_fallback_tier_total), and the requests answered 4xx
	// on any rung — the client's fault, which spends no error budget.
	TierRemote     uint64 `json:"tier_remote"`
	TierLocal      uint64 `json:"tier_local_runtime"`
	TierSequential uint64 `json:"tier_sequential"`
	ClientFaults   uint64 `json:"client_faults"`
}

// RemoteGrantRate is the fraction of remote probes granted — the
// cluster-scope "% divisions allowed".
func (s Stats) RemoteGrantRate() float64 {
	if s.RemoteProbes == 0 {
		return 0
	}
	return float64(s.RemoteGrants) / float64(s.RemoteProbes)
}

// FallbackRate is the fraction of requests the fleet could not take —
// the cluster analogue of the degraded-request rate.
func (s Stats) FallbackRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalFallbacks) / float64(s.Requests)
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d probes=%d granted=%d (%.0f%%) denies[credit=%d breaker=%d] served=%d sheds=%d deaths=%d fallbacks=%d (%.0f%%)",
		s.Requests, s.RemoteProbes, s.RemoteGrants, 100*s.RemoteGrantRate(),
		s.CreditDenies, s.BreakerDenies, s.RemoteServed, s.RemoteSheds,
		s.Deaths, s.LocalFallbacks, 100*s.FallbackRate())
}

// BackendStats is one backend's snapshot. Credits, Inflight, Broken and
// FeedConnected are instantaneous (what the next probe would see); the
// rest are cumulative since construction.
type BackendStats struct {
	URL           string `json:"url"`
	Name          string `json:"name"` // host:port, the metrics label
	Credits       int    `json:"credits"`
	Inflight      int    `json:"inflight"`
	Broken        bool   `json:"broken"`
	Dispatches    uint64 `json:"dispatches"`
	Served        uint64 `json:"served"`
	Sheds         uint64 `json:"sheds"`
	Deaths        uint64 `json:"deaths"`
	CreditDenies  uint64 `json:"credit_denies"`
	BreakerDenies uint64 `json:"breaker_denies"`
	Ejections     uint64 `json:"ejections"`
	BadHeaders    uint64 `json:"bad_headers"`
	FeedConnected bool   `json:"feed_connected"` // a push-feed subscription is open now
	FeedDeltas    uint64 `json:"feed_deltas"`    // push deltas applied to the gauge
	FeedDrops     uint64 `json:"feed_drops"`     // deltas dropped by the seq regression guard
	FeedConnects  uint64 `json:"feed_connects"`  // feed subscriptions opened (reconnects after the first)
	StaleDecays   uint64 `json:"stale_decays"`   // TTL decays toward the default credit ceiling

	// DispatchBuckets is the dispatch-latency density histogram
	// (relayed responses only), +Inf last: the router-side view of the
	// backend's serving latency, delta-able into windowed quantiles.
	DispatchBuckets [capserve.NumLatencyBuckets]uint64 `json:"dispatch_buckets"`
	DispatchSumNS   int64                              `json:"dispatch_sum_ns"`
}

// Stats snapshots the backend's counters and gauges. Allocation-free:
// atomic loads only.
func (b *Backend) Stats() BackendStats {
	s := BackendStats{
		URL:           b.url,
		Name:          b.name,
		Credits:       b.Credits(),
		Inflight:      b.Inflight(),
		Broken:        b.Broken(),
		Dispatches:    b.dispatches.Load(),
		Served:        b.served.Load(),
		Sheds:         b.sheds.Load(),
		Deaths:        b.deaths.Load(),
		CreditDenies:  b.creditDenies.Load(),
		BreakerDenies: b.breakerDenies.Load(),
		Ejections:     b.ejections.Load(),
		BadHeaders:    b.badHeaders.Load(),
		FeedConnected: b.feedConnected.Load(),
		FeedDeltas:    b.feedDeltas.Load(),
		FeedDrops:     b.feedDrops.Load(),
		FeedConnects:  b.feedConnects.Load(),
		StaleDecays:   b.staleDecays.Load(),
	}
	s.DispatchSumNS = b.dispatchLatency.ReadCounts(&s.DispatchBuckets)
	return s
}

// Stats snapshots the router's counters, aggregating the per-backend
// deny/shed/death counts. Allocation-free: atomic loads only.
func (r *Router) Stats() Stats {
	s := Stats{
		Requests:       r.requests.Load(),
		RemoteProbes:   r.remoteProbes.Load(),
		RemoteGrants:   r.remoteGrants.Load(),
		LocalFallbacks: r.localFallbacks.Load(),
		ClientGone:     r.clientGone.Load(),
		TierRemote:     r.tierRemote.Load(),
		TierLocal:      r.tierLocalRuntime.Load(),
		TierSequential: r.tierSequential.Load(),
		ClientFaults:   r.clientFaults.Load(),
	}
	for _, b := range r.backends {
		s.CreditDenies += b.creditDenies.Load()
		s.BreakerDenies += b.breakerDenies.Load()
		s.RemoteServed += b.served.Load()
		s.RemoteSheds += b.sheds.Load()
		s.Deaths += b.deaths.Load()
	}
	return s
}

// writeMetrics renders the router's caprouter_* and capcluster_* series
// from one Stats and one BackendStats per backend. New adds it to the
// local tier's /metrics, after that tier's capsule_* and capserve_*
// series — one scrape shows the whole degradation ladder: remote
// credits, local contexts, sequential runs.
func (r *Router) writeMetrics(w io.Writer) {
	s := r.Stats()
	bs := make([]BackendStats, len(r.backends))
	for i, b := range r.backends {
		bs[i] = b.Stats()
	}
	p := promtext.NewWriter(w)

	p.Gauge("caprouter_backends", "Configured backend count.", float64(len(bs)))
	p.Gauge("caprouter_uptime_seconds", "Seconds since the router was built.", time.Since(r.clock.epoch).Seconds())
	p.Counter("caprouter_requests_total", "Run requests received.", s.Requests)
	p.Counter("caprouter_remote_probes_total", "Remote probes (cluster nthr attempts).", s.RemoteProbes)
	p.Counter("caprouter_remote_granted_total", "Remote probes that reserved a backend credit.", s.RemoteGrants)
	p.Family("caprouter_remote_denies_total", "counter", "Refused remote probes by reason.")
	p.Count("caprouter_remote_denies_total", s.CreditDenies, "reason", "credit")
	p.Count("caprouter_remote_denies_total", s.BreakerDenies, "reason", "breaker")
	p.Counter("caprouter_remote_served_total", "Responses proxied back from backends.", s.RemoteServed)
	p.Counter("caprouter_remote_sheds_total", "Backend 503s absorbed by retry/fallback.", s.RemoteSheds)
	p.Counter("caprouter_deaths_total", "Backend failures (cluster kthr).", s.Deaths)
	p.Counter("caprouter_local_fallbacks_total", "Requests degraded to the local runtime.", s.LocalFallbacks)
	p.Counter("caprouter_client_gone_total", "Clients that hung up mid-route.", s.ClientGone)
	p.Counter("caprouter_client_faults_total", "Requests answered 4xx on any rung (client faults, no SLO budget spent).", s.ClientFaults)
	p.Gauge("caprouter_remote_grant_rate", "Fraction of remote probes granted (cluster \"% divisions allowed\").", s.RemoteGrantRate())
	p.Gauge("caprouter_fallback_rate", "Fraction of requests the fleet could not take.", s.FallbackRate())

	gauge := func(name, help string, v func(*BackendStats) float64) {
		p.Family(name, "gauge", help)
		for i := range bs {
			p.Value(name, v(&bs[i]), "backend", bs[i].Name)
		}
	}
	counter := func(name, help string, v func(*BackendStats) uint64) {
		p.Family(name, "counter", help)
		for i := range bs {
			p.Count(name, v(&bs[i]), "backend", bs[i].Name)
		}
	}
	gauge("caprouter_backend_credits", "Current credit ceiling.", func(b *BackendStats) float64 { return float64(b.Credits) })
	gauge("caprouter_backend_inflight", "Dispatches currently holding a credit.", func(b *BackendStats) float64 { return float64(b.Inflight) })
	gauge("caprouter_backend_broken", "1 while the failure breaker denies probes.", func(b *BackendStats) float64 { return one(b.Broken) })
	counter("caprouter_backend_dispatches_total", "Granted probes sent to the wire.", func(b *BackendStats) uint64 { return b.Dispatches })
	counter("caprouter_backend_served_total", "Responses proxied from this backend.", func(b *BackendStats) uint64 { return b.Served })
	counter("caprouter_backend_deaths_total", "Failures charged to this backend.", func(b *BackendStats) uint64 { return b.Deaths })
	counter("caprouter_backend_sheds_total", "503 sheds from this backend.", func(b *BackendStats) uint64 { return b.Sheds })
	counter("caprouter_backend_ejections_total", "Slow-backend ejections (p99 outlier vs fleet median).", func(b *BackendStats) uint64 { return b.Ejections })
	counter("caprouter_backend_bad_headers_total", "Rejected credit advertisements (headers or feed deltas).", func(b *BackendStats) uint64 { return b.BadHeaders })
	gauge("caprouter_backend_feed_connected", "1 while a credit-feed subscription is open.", func(b *BackendStats) float64 { return one(b.FeedConnected) })
	counter("caprouter_backend_feed_deltas_total", "Push credit deltas applied to the gauge.", func(b *BackendStats) uint64 { return b.FeedDeltas })
	counter("caprouter_backend_feed_reconnects_total", "Credit-feed subscriptions opened.", func(b *BackendStats) uint64 { return b.FeedConnects })
	counter("caprouter_backend_stale_decays_total", "Gauge decays toward the default after every credit source went quiet.", func(b *BackendStats) uint64 { return b.StaleDecays })

	if len(bs) > 0 {
		const name = "capcluster_dispatch_duration_seconds"
		p.Family(name, "histogram", "Remote dispatch duration, relayed responses only (deaths/timeouts excluded).")
		bounds := capserve.LatencyBucketBounds()
		for i := range bs {
			p.Histogram(name, bounds, bs[i].DispatchBuckets[:], float64(bs[i].DispatchSumNS)/1e9, "backend", bs[i].Name)
		}
	}

	// The degradation-ladder outcome split: which tier finally produced
	// each 2xx. remote + local_runtime + sequential + client faults can
	// trail caprouter_requests_total by the requests that failed on every
	// rung.
	p.Family("caprouter_fallback_tier_total", "counter", "Successful requests by the tier that served them.")
	p.Count("caprouter_fallback_tier_total", s.TierRemote, "tier", "remote")
	p.Count("caprouter_fallback_tier_total", s.TierLocal, "tier", "local_runtime")
	p.Count("caprouter_fallback_tier_total", s.TierSequential, "tier", "sequential")

	bi := buildinfo.Get()
	p.Family("caprouter_build_info", "gauge", "Build metadata; the value is always 1.")
	p.Count("caprouter_build_info", 1, "version", bi.Version, "go", bi.Go, "gomaxprocs", strconv.Itoa(bi.MaxProcs))
}

// one is a flag as a 0/1 gauge value.
func one(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package capcluster

import (
	"io"
	"net/http"

	"repro/internal/capserve"
)

// Read-side hooks for periodic samplers (internal/capwatch), the
// cluster tier's counterpart of capserve's: allocation-free snapshot
// reads over the router's atomic counters and the per-backend credit
// gauges, so a sampler tick never contends with the dispatch path.

// BackendCounters is one backend's gauges and cumulative counters as a
// sampler reads them. Credits/Inflight/Broken are instantaneous (the
// credit gauge and breaker the next probe would see); the rest are
// cumulative since construction, delta-able across samples.
type BackendCounters struct {
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

	// DispatchBuckets is the dispatch-latency density histogram
	// (relayed responses only), +Inf last — the router-side view of the
	// backend's serving latency, delta-able into windowed quantiles.
	DispatchBuckets [capserve.NumLatencyBuckets]uint64 `json:"dispatch_buckets"`
	DispatchSumNS   int64                              `json:"dispatch_sum_ns"`
}

// BackendNames returns the fleet's metrics labels (host:port) in the
// order ReadBackendCounters fills. Callers must not modify the slice's
// backing order assumptions: it is fixed at construction.
func (r *Router) BackendNames() []string {
	names := make([]string, len(r.backends))
	for i, b := range r.backends {
		names[i] = b.name
	}
	return names
}

// ReadBackendCounters fills dst with up to len(Backends()) backends'
// counters in fleet order and returns the backend count.
// Allocation-free.
func (r *Router) ReadBackendCounters(dst []BackendCounters) int {
	n := len(r.backends)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		b := r.backends[i]
		d := &dst[i]
		d.Credits = b.Credits()
		d.Inflight = b.Inflight()
		d.Broken = b.Broken()
		d.Dispatches = b.dispatches.Load()
		d.Served = b.served.Load()
		d.Sheds = b.sheds.Load()
		d.Deaths = b.deaths.Load()
		d.CreditDenies = b.creditDenies.Load()
		d.BreakerDenies = b.breakerDenies.Load()
		d.Ejections = b.ejections.Load()
		d.BadHeaders = b.badHeaders.Load()
		d.DispatchSumNS = b.dispatchLatency.ReadCounts(&d.DispatchBuckets)
	}
	return len(r.backends)
}

// RouterCounters is the router's own cumulative request accounting as
// a sampler reads it — the client-visible side (what came in, which
// tier answered) rather than the per-backend split.
type RouterCounters struct {
	Requests       uint64 `json:"requests"`
	RemoteProbes   uint64 `json:"remote_probes"`
	RemoteGrants   uint64 `json:"remote_grants"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	ClientGone     uint64 `json:"client_gone"`
	TierRemote     uint64 `json:"tier_remote"`
	TierLocal      uint64 `json:"tier_local_runtime"`
	TierSequential uint64 `json:"tier_sequential"`
}

// ReadCounters snapshots the router-scope counters. Allocation-free.
func (r *Router) ReadCounters() RouterCounters {
	return RouterCounters{
		Requests:       r.requests.Load(),
		RemoteProbes:   r.remoteProbes.Load(),
		RemoteGrants:   r.remoteGrants.Load(),
		LocalFallbacks: r.localFallbacks.Load(),
		ClientGone:     r.clientGone.Load(),
		TierRemote:     r.tierRemote.Load(),
		TierLocal:      r.tierLocalRuntime.Load(),
		TierSequential: r.tierSequential.Load(),
	}
}

// Mount registers an additional handler on the router's mux (the debug
// plane's /debug/trace, /debug/watch and /debug/incident). Call before serving starts; the mux is not
// synchronized against in-flight requests.
func (r *Router) Mount(pattern string, h http.Handler) { r.mux.Handle(pattern, h) }

// AddMetrics appends an extra exposition writer to the router's
// /metrics, emitted after the caprouter_* series and the local tier's
// exposition. Wire before serving starts.
func (r *Router) AddMetrics(f func(io.Writer)) { r.extraMetrics = append(r.extraMetrics, f) }

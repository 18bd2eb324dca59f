package capserve

import (
	"io"
	"net/http"
)

// Read-side hooks for periodic samplers (internal/capwatch). The
// sampler's contract is McKenney's: writers touch only their own
// per-request atomic counters, and a snapshot is the reader paying the
// whole aggregation cost itself — so every hook here is allocation-free
// and takes only atomic loads, safe to call at any tick rate against a
// server under full load.

// NumLatencyBuckets is the fixed bucket count of every Histogram:
// len(latencyBuckets) finite bounds plus the +Inf overflow slot.
const NumLatencyBuckets = 16

// LatencyBucketBounds returns a copy of the histogram upper bounds in
// seconds (finite bounds only; the +Inf overflow is implied as bucket
// NumLatencyBuckets-1). Read-side code pairs it with ReadCounts
// snapshots for delta-quantile math (promtext.DeltaQuantile).
func LatencyBucketBounds() []float64 {
	out := make([]float64, len(latencyBuckets))
	copy(out, latencyBuckets)
	return out
}

// ReadCounts copies the histogram's per-bucket density counts (NOT
// cumulative; +Inf last) into dst and returns the sum of observed
// nanoseconds. Allocation-free: 17 atomic loads.
func (h *Histogram) ReadCounts(dst *[NumLatencyBuckets]uint64) (sumNS int64) {
	for i := range dst {
		dst[i] = h.counts[i].Load()
	}
	return h.sumNS.Load()
}

// EndpointCounters is one workload's cumulative serving counters as a
// sampler reads them, folded from the per-code split into the
// classes an SLO evaluator needs: successes, client faults (the
// request was wrong or abandoned: 400, 413, 499 — these spend no error
// budget) and server faults (the server refused or failed work it
// should have done: 500, and the 503 queue sheds).
type EndpointCounters struct {
	OK             uint64                    `json:"ok"`
	ClientErrs     uint64                    `json:"client_errs"`
	ServerErrs     uint64                    `json:"server_errs"`
	Degraded       uint64                    `json:"degraded"`
	LatencyBuckets [NumLatencyBuckets]uint64 `json:"latency_buckets"` // density, +Inf last
	LatencySumNS   int64                     `json:"latency_sum_ns"`
}

// Workloads returns the server's endpoint order — the order
// ReadEndpointCounters fills and the index space a sampler labels its
// per-endpoint series with. Callers must not modify the slice.
func (s *Server) Workloads() []string { return s.workloads }

// ReadEndpointCounters fills dst with up to len(Workloads()) endpoints'
// counters in Workloads order and returns the endpoint count.
// Allocation-free.
func (s *Server) ReadEndpointCounters(dst []EndpointCounters) int {
	n := len(s.workloads)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		ep := s.eps[s.workloads[i]]
		d := &dst[i]
		d.OK = ep.byCode[0].Load()                                                     // 200
		d.ClientErrs = ep.byCode[1].Load() + ep.byCode[2].Load() + ep.byCode[3].Load() // 400, 413, 499
		d.ServerErrs = ep.byCode[4].Load() + ep.byCode[5].Load()                       // 500, 503
		d.Degraded = ep.degraded.Load()
		d.LatencySumNS = ep.latency.ReadCounts(&d.LatencyBuckets)
	}
	return len(s.workloads)
}

// QueueOccupancy returns the requests currently holding an accept-queue
// slot (the instantaneous companion of QueueDepth).
func (s *Server) QueueOccupancy() int { return len(s.queue) }

// ShedCount returns the cumulative 503 queue sheds.
func (s *Server) ShedCount() uint64 { return s.shed.Load() }

// Mount registers an additional handler on the server's mux — the hook
// the debug plane (internal/capdebug) uses to put /debug/trace, /debug/watch
// and /debug/incident on the same listener. Call before the server starts serving;
// the mux is not synchronized against in-flight requests.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// AddMetrics appends an extra exposition writer to /metrics, emitted
// after the server's own series. Same timing contract as Mount: wire it
// up before serving starts.
func (s *Server) AddMetrics(f func(io.Writer)) { s.extraMetrics = append(s.extraMetrics, f) }

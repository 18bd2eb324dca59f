package capserve

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/promtext"
)

// The /metrics exposition, rendered through promtext.Writer, and the
// fixed-bucket latency histogram behind its duration families.

// latencyBuckets are the histogram upper bounds in seconds, log-spaced
// from 100µs to 5s; observations beyond the last bound land in +Inf.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// latencyBucketsNS are the same bounds in integer nanoseconds: the
// observation path compares the duration directly against them, so
// recording a latency is pure integer work — no float conversion, no
// binary-search call, no lock — and cannot re-serialize the request path
// the runtime just de-serialized.
var latencyBucketsNS = func() [15]int64 {
	var ns [15]int64
	for i, s := range latencyBuckets {
		ns[i] = int64(s * 1e9)
	}
	return ns
}()

// Histogram is a fixed-bucket latency histogram with atomic counters.
// counts[i] is the number of observations in bucket i (NOT cumulative;
// cumulation happens at write time, as the text format requires), with
// the final slot holding the +Inf overflow. Observe is two atomic adds:
// safe for any number of concurrent request goroutines, allocation-free,
// and mutex-free. Exported because it is the repo's one histogram
// implementation: capcluster reuses it for its per-backend dispatch
// durations rather than growing a second copy of the bucket logic.
type Histogram struct {
	counts [16]atomic.Uint64 // len(latencyBuckets)+1
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	i := 0
	for i < len(latencyBucketsNS) && ns > latencyBucketsNS[i] {
		i++ // first bound >= ns: le is inclusive, as Prometheus requires
	}
	h.counts[i].Add(1)
	h.sumNS.Add(ns)
}

// statusClientClosed is nginx's convention for "client closed the
// request before the server dispatched it" — not in net/http's table,
// but the useful distinction here is between work the server refused
// (503) and work the client abandoned.
const statusClientClosed = 499

// statusCodes are the per-endpoint response codes the server can produce
// for a dispatched request (queue sheds are counted server-wide too).
var statusCodes = []int{200, 400, 413, 499, 500, 503}

// endpoint holds one workload's serving counters.
type endpoint struct {
	byCode   [6]atomic.Uint64 // parallel to statusCodes
	degraded atomic.Uint64    // requests run on the Sequential domain
	latency  Histogram        // 2xx request durations
}

func (e *endpoint) inc(code int) {
	for i, c := range statusCodes {
		if c == code {
			e.byCode[i].Add(1)
			return
		}
	}
	// Unknown codes fold into 500: the server only writes codes from
	// statusCodes, so this is a belt-and-braces path.
	e.byCode[4].Add(1)
}

// WriteMetrics renders the server's Prometheus exposition to w. It is
// what /metrics serves, exported for embedders (a router mounts a Server
// as its local fallback tier and publishes these series on its own
// /metrics next to the caprouter_* ones).
func (s *Server) WriteMetrics(w io.Writer) { s.writeMetrics(w) }

// writeMetrics renders the full exposition: the shared runtime's Stats
// (the paper's counters, now serving observables) followed by the
// per-endpoint serving counters and latency histograms.
func (s *Server) writeMetrics(w io.Writer) {
	st := s.rt.Stats()
	p := promtext.NewWriter(w)

	p.Gauge("capsule_contexts", "Context-token pool size (the SOMT hardware context count).", float64(s.rt.Contexts()))
	p.Counter("capsule_probes_total", "Division probes (nthr attempts).", st.Probes)
	p.Counter("capsule_granted_total", "Probes that reserved a context token.", st.Granted)
	p.Family("capsule_denies_total", "counter", "Refused probes by reason.")
	p.Count("capsule_denies_total", st.NoCtxDenies, "reason", "no_ctx")
	p.Count("capsule_denies_total", st.ThrottleDenies, "reason", "throttle")
	p.Counter("capsule_deaths_total", "Worker terminations (kthr).", st.Deaths)
	p.Counter("capsule_workers_total", "Workers ever spawned.", st.TotalWorkers)
	p.Gauge("capsule_workers_peak", "Maximum simultaneously live workers.", float64(st.PeakWorkers))
	p.Counter("capsule_lock_acquires_total", "Lock-table acquisitions (mlock).", st.LockAcquires)
	p.Gauge("capsule_grant_rate", "Fraction of probes granted (the paper's \"% divisions allowed\").", st.GrantRate())

	// Headroom gauges: the instantaneous free capacity a routing tier
	// (capcluster) treats as this backend's credits. Cumulative counters
	// tell an operator what happened; these two say what the server could
	// absorb right now.
	p.Gauge("capsule_free_contexts", "Currently unreserved context tokens (instantaneous division headroom).", float64(s.rt.FreeContexts()))

	p.Gauge("capserve_uptime_seconds", "Seconds since the server was built.", time.Since(s.start).Seconds())
	p.Gauge("capserve_queue_depth", "Bounded accept-queue capacity.", float64(cap(s.queue)))
	p.Gauge("capserve_queue_occupancy", "Requests currently holding an accept-queue slot.", float64(len(s.queue)))
	p.Counter("capserve_shed_total", "Requests shed with 503 because the accept queue was full.", s.shed.Load())
	p.Counter("capserve_not_found_total", "Requests for unknown workloads.", s.notFound.Load())

	p.Family("capserve_requests_total", "counter", "Completed requests by workload and status code.")
	for _, wl := range s.workloads {
		ep := s.eps[wl]
		for i, code := range statusCodes {
			p.Count("capserve_requests_total", ep.byCode[i].Load(), "workload", wl, "code", strconv.Itoa(code))
		}
	}
	p.Family("capserve_degraded_total", "counter", "Requests admitted without a free context and run sequentially.")
	for _, wl := range s.workloads {
		p.Count("capserve_degraded_total", s.eps[wl].degraded.Load(), "workload", wl)
	}
	p.Family("capserve_request_duration_seconds", "histogram", "Successful request duration.")
	for _, wl := range s.workloads {
		var counts [NumLatencyBuckets]uint64
		sumNS := s.eps[wl].latency.ReadCounts(&counts)
		p.Histogram("capserve_request_duration_seconds", latencyBuckets, counts[:], float64(sumNS)/1e9, "workload", wl)
	}

	bi := buildinfo.Get()
	p.Family("capserve_build_info", "gauge", "Build metadata; the value is always 1.")
	p.Count("capserve_build_info", 1, "version", bi.Version, "go", bi.Go, "gomaxprocs", strconv.Itoa(bi.MaxProcs))

	for _, f := range s.extraMetrics {
		f(w)
	}
}

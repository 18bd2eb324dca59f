package capserve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4). The
// container forbids new dependencies, and the surface we need — counters,
// gauges and one fixed-bucket histogram family — is small enough that a
// client library would be mostly dead weight anyway.

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

// Write emits the _bucket/_sum/_count series for one labelled histogram.
// _count is the +Inf cumulative rather than a separate load of h.n, so a
// scrape racing live observations can never emit a _count that disagrees
// with the buckets (the Prometheus histogram invariant).
func (h *Histogram) Write(w io.Writer, name, labels string) {
	var cum uint64
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, le, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
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
// what /metrics serves, exported for embedders (caprouter mounts a Server
// as its local fallback tier and publishes these series on its own
// /metrics next to the caprouter_* ones).
func (s *Server) WriteMetrics(w io.Writer) { s.writeMetrics(w) }

// writeMetrics renders the full exposition: the shared runtime's Stats
// (the paper's counters, now serving observables) followed by the
// per-endpoint serving counters and latency histograms.
func (s *Server) writeMetrics(w io.Writer) {
	st := s.rt.Stats()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHead := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	counter := func(name, help string, v uint64) {
		counterHead(name, help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}

	gauge("capsule_contexts", "Context-token pool size (the SOMT hardware context count).", float64(s.rt.Contexts()))
	counter("capsule_probes_total", "Division probes (nthr attempts).", st.Probes)
	counter("capsule_granted_total", "Probes that reserved a context token.", st.Granted)
	counterHead("capsule_denies_total", "Refused probes by reason.")
	fmt.Fprintf(w, "capsule_denies_total{reason=\"no_ctx\"} %d\n", st.NoCtxDenies)
	fmt.Fprintf(w, "capsule_denies_total{reason=\"throttle\"} %d\n", st.ThrottleDenies)
	counter("capsule_deaths_total", "Worker terminations (kthr).", st.Deaths)
	counter("capsule_workers_total", "Workers ever spawned.", st.TotalWorkers)
	gauge("capsule_workers_peak", "Maximum simultaneously live workers.", float64(st.PeakWorkers))
	counter("capsule_lock_acquires_total", "Lock-table acquisitions (mlock).", st.LockAcquires)
	gauge("capsule_grant_rate", "Fraction of probes granted (the paper's \"% divisions allowed\").", st.GrantRate())

	// Headroom gauges: the instantaneous free capacity a routing tier
	// (caprouter) treats as this backend's credits. Cumulative counters
	// tell an operator what happened; these two say what the server could
	// absorb right now.
	gauge("capsule_free_contexts", "Currently unreserved context tokens (instantaneous division headroom).", float64(s.rt.FreeContexts()))

	gauge("capserve_uptime_seconds", "Seconds since the server was built.", time.Since(s.start).Seconds())
	gauge("capserve_queue_depth", "Bounded accept-queue capacity.", float64(cap(s.queue)))
	gauge("capserve_queue_occupancy", "Requests currently holding an accept-queue slot.", float64(len(s.queue)))
	counter("capserve_shed_total", "Requests shed with 503 because the accept queue was full.", s.shed.Load())
	counter("capserve_not_found_total", "Requests for unknown workloads.", s.notFound.Load())

	counterHead("capserve_requests_total", "Completed requests by workload and status code.")
	for _, wl := range s.workloads {
		ep := s.eps[wl]
		for i, code := range statusCodes {
			fmt.Fprintf(w, "capserve_requests_total{workload=%q,code=\"%d\"} %d\n", wl, code, ep.byCode[i].Load())
		}
	}
	counterHead("capserve_degraded_total", "Requests admitted without a free context and run sequentially.")
	for _, wl := range s.workloads {
		fmt.Fprintf(w, "capserve_degraded_total{workload=%q} %d\n", wl, s.eps[wl].degraded.Load())
	}
	fmt.Fprintf(w, "# HELP capserve_request_duration_seconds Successful request duration.\n")
	fmt.Fprintf(w, "# TYPE capserve_request_duration_seconds histogram\n")
	for _, wl := range s.workloads {
		s.eps[wl].latency.Write(w, "capserve_request_duration_seconds", fmt.Sprintf("workload=%q", wl))
	}

	bi := buildinfo.Get()
	fmt.Fprintf(w, "# HELP capserve_build_info Build metadata; the value is always 1.\n# TYPE capserve_build_info gauge\n")
	fmt.Fprintf(w, "capserve_build_info{version=%q,go=%q,gomaxprocs=\"%d\"} 1\n", bi.Version, bi.Go, bi.MaxProcs)

	for _, f := range s.extraMetrics {
		f(w)
	}
}

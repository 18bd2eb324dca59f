package capcluster

import (
	"net/http"
	"time"

	"repro/internal/captrace"
)

// Cluster-tier tracing: the router gives every /run request a trace
// identity — adopted from the client's X-Capsule-Trace-ID or minted and
// sampled — and records its route span against it: received, each
// dispatch attempt with the credit-gauge snapshot that justified it,
// the per-backend outcome (served / shed / death), and the fallback
// tier when the whole fleet refused. The same ID is re-propagated on
// the outbound dispatch header and injected into the local tier's
// request context, so one ID stitches router span → backend span →
// pool-shard events into a single waterfall (cmd/captrace draws it).

// traceIdentity decides the request's trace ID and whether its route
// span is recorded. A parseable client header is adopted and always
// traced — whoever stamped it wants this request observable end to
// end; otherwise an ID is minted and traced for one in TraceSample
// requests. No tracer, no identity: the header is not echoed and the
// hot path pays one nil check.
func (r *Router) traceIdentity(req *http.Request) (tid uint64, traced bool) {
	if r.tracer == nil {
		return 0, false
	}
	if h := req.Header.Get(captrace.HeaderTraceID); h != "" {
		if id, err := captrace.ParseID(h); err == nil {
			return id, true
		}
		// Malformed header: mint a fresh ID rather than adopting garbage.
	}
	return captrace.NewID(), r.sampler.Sample()
}

// trace records one route-span event for a traced request; a no-op for
// untraced ones.
func (r *Router) trace(traced bool, kind captrace.Kind, tid uint64, a uint16, b uint32) {
	if traced {
		r.tracer.Record(kind, tid, 0, a, b)
	}
}

// statusWriter captures the status code the local tier wrote, so the
// fallback path can classify its tier after ServeHTTP returns.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// durUS packs a duration into the µs-resolution uint32 a trace event's
// B field carries (saturating; same shape as capserve's).
func durUS(d time.Duration) uint32 {
	us := d.Microseconds()
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

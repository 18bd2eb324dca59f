package capcluster

import (
	"net/http"

	"repro/internal/captrace"
)

// Cluster-tier tracing: the router gives every /run request a trace
// identity — adopted from the client's X-Capsule-Trace-ID or minted and
// sampled, decided by captrace's Tracer.Identify against the local
// tier's tracer — and records its route span against it: received, each
// dispatch attempt with the credit-gauge snapshot that justified it,
// the per-backend outcome (served / shed / death), and the fallback
// tier when the whole fleet refused. The same ID is re-propagated on
// the outbound dispatch header and injected into the local tier's
// request context, so one ID stitches router span → backend span →
// pool-shard events into a single waterfall (capscope trace draws it).

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

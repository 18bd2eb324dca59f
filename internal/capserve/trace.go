package capserve

import (
	"net/http"

	"repro/internal/captrace"
)

// Request tracing: every /run request gets a trace identity — adopted,
// injected, or minted — and the serving-tier lifecycle (admit, shed,
// degrade, done) is recorded against it in the shared tracer, alongside
// the runtime events its Domain produces (see NewGroupTraced). The
// /debug/trace endpoint is the read side.

// DefaultTraceSample is the 1-in-N sampling rate for server-generated
// trace IDs when Config.TraceSample is 0: enough exemplars to always
// have a recent waterfall, cheap enough to leave on.
const DefaultTraceSample = 64

// traceIdentity decides a request's trace ID and whether its events are
// recorded, in precedence order:
//
//  1. an identity injected via captrace.WithRequest (the in-process
//     router fallback path) is authoritative — the router already
//     decided, and re-deciding here could disagree with its route span;
//  2. a parseable X-Capsule-Trace-ID header is adopted and always
//     traced: whoever stamped it (capload -trace, a curl repro, the
//     router's dispatch propagation) wants this request observable;
//  3. otherwise, with tracing armed, an ID is minted and traced for one
//     in TraceSample requests — steady background exemplars.
//
// With no tracer armed there is no identity at all: the header is not
// echoed and nothing is recorded, keeping the disabled path at zero
// added work beyond one nil check.
func (s *Server) traceIdentity(r *http.Request) (tid uint64, traced bool) {
	if id, tr, ok := captrace.RequestFrom(r.Context()); ok {
		return id, tr && s.tracer != nil
	}
	if s.tracer == nil {
		return 0, false
	}
	if h := r.Header.Get(captrace.HeaderTraceID); h != "" {
		if id, err := captrace.ParseID(h); err == nil {
			return id, true
		}
		// Malformed header: mint instead of adopting garbage, so the
		// response still tells the client what ID (if any) to look for.
	}
	return captrace.NewID(), s.sampler.Sample()
}

// trace records one serving-tier event against a traced request; a
// no-op for untraced ones. (tid may be nonzero while traced is false:
// identified-but-unsampled requests echo their ID but record nothing.)
func (s *Server) trace(traced bool, kind captrace.Kind, tid uint64, a uint16, b uint32) {
	if traced {
		s.tracer.Record(kind, tid, 0, a, b)
	}
}

package capcluster

import (
	"encoding/json"
	"net/http"
	"strconv"
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

// handleTrace serves GET /debug/trace?n= — the router's own snapshot
// (same shape and semantics as capserve's), plus one snapshot per
// TraceLocals provider when in-process backends exist, so the router's
// URL alone yields the full route-span → backend-span → runtime-event
// timeline for the -spawn topology.
func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	if r.tracer == nil {
		http.Error(w, "tracing disabled (start with -trace)", http.StatusNotFound)
		return
	}
	n := 0
	if v := req.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return
		}
		n = p
	}
	w.Header().Set("Content-Type", "application/json")
	if len(r.cfg.TraceLocals) == 0 {
		json.NewEncoder(w).Encode(r.tracer.Snapshot(r.traceSource, n))
		return
	}
	// With in-process backends the router is the only party that knows
	// every ring, so one fetch returns them all: an array of snapshots,
	// the router's own first.
	snaps := make([]captrace.Snapshot, 0, 1+len(r.cfg.TraceLocals))
	snaps = append(snaps, r.tracer.Snapshot(r.traceSource, n))
	for _, ts := range r.cfg.TraceLocals {
		snaps = append(snaps, ts.TraceSnapshot(n))
	}
	json.NewEncoder(w).Encode(snaps)
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

package capserve

import "repro/internal/captrace"

// Request tracing: every /run request gets a trace identity — injected,
// adopted or minted, decided by captrace's Tracer.Identify against the
// runtime's tracer — and the serving-tier lifecycle (admit, shed,
// degrade, done) is recorded against it in the shared tracer, alongside
// the runtime events its Domain produces (see NewGroupTraced). The
// /debug/trace endpoint is the read side.

// trace records one serving-tier event against a traced request; a
// no-op for untraced ones. (tid may be nonzero while traced is false:
// identified-but-unsampled requests echo their ID but record nothing.)
func (s *Server) trace(traced bool, kind captrace.Kind, tid uint64, a uint16, b uint32) {
	if traced {
		s.tracer.Record(kind, tid, 0, a, b)
	}
}
